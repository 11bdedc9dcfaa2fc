#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"

namespace llmfi::net {

namespace {

// epoll user-data keys for the two non-connection fds; connection ids
// start at 1 and never reuse, so no collision is possible.
constexpr std::uint64_t kListenKey = ~std::uint64_t{0};
constexpr std::uint64_t kWakeKey = ~std::uint64_t{0} - 1;

std::string error_body(std::string_view msg) {
  return std::string("{\"error\":\"") + std::string(msg) + "\"}";
}

// Maps a parser error onto the 4xx response the connection dies with.
int error_status(HttpError e) {
  switch (e) {
    case HttpError::BadMethod: return 405;
    case HttpError::HeadersTooLarge: return 431;
    case HttpError::BodyTooLarge: return 413;
    case HttpError::LengthRequired: return 411;
    default: return 400;
  }
}

std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses the <id> tail of /v1/requests/<id>; nullopt on empty or
// non-numeric tails (404, matching an unknown request id).
std::optional<std::uint64_t> parse_request_id(std::string_view tail) {
  if (tail.empty() || tail.size() > 20) return std::nullopt;
  std::uint64_t id = 0;
  for (const char ch : tail) {
    if (ch < '0' || ch > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return id;
}

}  // namespace

// Per-connection state; owned and touched exclusively by the io thread.
struct Server::Conn {
  std::uint64_t id = 0;
  int fd = -1;
  HttpRequestParser parser;
  std::string outbuf;
  std::size_t out_off = 0;
  bool want_write = false;  // EPOLLOUT currently armed
  bool streaming = false;   // an SSE completion stream is in flight
  bool stream_keep_alive = true;
  bool closing = false;  // close as soon as the outbuf drains

  explicit Conn(HttpLimits limits) : parser(limits) {}
};

Server::Server(ServerConfig cfg, Backend backend)
    : cfg_(std::move(cfg)),
      backend_(std::move(backend)),
      max_prompt_tokens_(backend_.sched.max_prompt_tokens()) {}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("Server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("Server: bad host " + cfg_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error(std::string("Server: bind failed: ") +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error("Server: listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    throw std::runtime_error("Server: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeKey;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true, std::memory_order_release);
  engine_thread_ = std::thread([this] { engine_main(); });
  io_thread_ = std::thread([this] { io_main(); });
}

void Server::request_drain() {
  drain_requested_.store(true);
  wake_io();  // one write(2) — async-signal-safe
}

void Server::wake_io() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(wake_fd_, &one, sizeof(one));
  }
}

void Server::push_cmd(Cmd cmd) {
  {
    std::lock_guard<std::mutex> lk(inbox_mu_);
    inbox_.push_back(std::move(cmd));
  }
  inbox_cv_.notify_one();
}

void Server::wait() {
  if (io_thread_.joinable()) io_thread_.join();
  if (engine_thread_.joinable()) engine_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void Server::stop() {
  if (!io_thread_.joinable() && !engine_thread_.joinable()) return;
  stop_requested_.store(true);
  inbox_cv_.notify_all();
  wake_io();
  wait();
}

// --- engine thread -------------------------------------------------------

void Server::engine_main() {
  serve::Scheduler& sched = backend_.sched;
  std::map<std::uint64_t, std::uint64_t> req_conn;  // request -> connection
  std::map<std::uint64_t, std::uint64_t> conn_req;  // connection -> request
  std::map<std::uint64_t, std::unique_ptr<RequestHookCtx>> ctxs;
  std::uint64_t next_req_id = 1;
  std::vector<Event> batch;  // events accumulated this iteration

  const auto token_payload = [this](int index, tok::TokenId t) {
    std::string text;
    if (t >= 0 && t < backend_.vocab.size() && !backend_.vocab.is_special(t)) {
      text = backend_.vocab.word(t);
    }
    std::string p = "{\"index\":";
    p += std::to_string(index);
    p += ",\"token_id\":";
    p += std::to_string(t);
    p += ",\"text\":\"";
    p += json_escape(text);
    p += "\"}";
    return p;
  };
  const auto done_payload = [&](const serve::Completion& c) {
    std::string det;
    if (const auto it = ctxs.find(c.id); it != ctxs.end() && it->second) {
      det = it->second->on_complete(c);
    }
    std::string p = "{\"done\":true,\"id\":";
    p += std::to_string(c.id);
    p += ",\"tokens\":";
    p += std::to_string(c.tokens.size());
    p += ",\"cancelled\":";
    p += c.cancelled ? "true" : "false";
    p += ",\"hit_max_tokens\":";
    p += c.hit_max_tokens ? "true" : "false";
    p += ",\"nonfinite\":";
    p += c.nonfinite_logits ? "true" : "false";
    if (!det.empty()) {
      p += ",\"detector\":\"";
      p += json_escape(det);
      p += "\"";
    }
    p += "}";
    return p;
  };

  for (;;) {
    std::deque<Cmd> cmds;
    {
      std::unique_lock<std::mutex> lk(inbox_mu_);
      // Park only when truly idle: with active sequences the loop must
      // keep ticking, commands or not.
      inbox_cv_.wait(lk, [&] {
        return stop_requested_.load() || !inbox_.empty() || !sched.idle();
      });
      cmds.swap(inbox_);
    }
    if (stop_requested_.load()) break;

    for (Cmd& cmd : cmds) {
      switch (cmd.kind) {
        case Cmd::Kind::Submit: {
          const std::uint64_t conn = cmd.conn_id;
          if (sched.draining()) {
            // Raced with drain after the io thread's 503 check: the
            // stream headers are already on the wire, so terminate the
            // stream with a cancelled done event instead of throwing.
            serve::Completion c;
            c.id = 0;
            c.cancelled = true;
            batch.push_back(
                {Event::Kind::Done, conn, done_payload(c)});
            break;
          }
          serve::Request r;
          r.id = next_req_id++;
          r.prompt = std::move(cmd.prompt);
          r.max_new_tokens = cmd.max_new_tokens;
          r.eos = backend_.vocab.eos();
          // Observability identity, minted once at HTTP accept time:
          // the connection id as the trace (one client interaction can
          // pipeline several requests) and the engine request id — the
          // same id the SSE done event reports — as the request, so a
          // client can fetch GET /v1/requests/<id> afterwards.
          r.ctx.trace_id = cmd.conn_id;
          r.ctx.request_id = r.id;
          if (backend_.hook_factory) {
            auto ctx = backend_.hook_factory(r.id);
            if (ctx) {
              r.hook = ctx->linear_hook();
              ctxs[r.id] = std::move(ctx);
            }
          }
          req_conn[r.id] = conn;
          conn_req[conn] = r.id;
          r.on_token = [&batch, conn, &token_payload](
                           std::uint64_t, int index, tok::TokenId t) {
            batch.push_back(
                {Event::Kind::Token, conn, token_payload(index, t)});
          };
          r.on_done = [&batch, conn, &done_payload](
                          const serve::Completion& c) {
            batch.push_back({Event::Kind::Done, conn, done_payload(c)});
          };
          sched.submit(std::move(r));
          break;
        }
        case Cmd::Kind::Cancel: {
          const auto it = conn_req.find(cmd.conn_id);
          if (it == conn_req.end()) break;  // already retired: benign race
          std::vector<serve::Completion> done;
          sched.cancel(it->second, done);  // on_done queues the Done event
          break;
        }
        case Cmd::Kind::Drain: {
          if (!sched.draining()) sched.drain();
          draining_pub_.store(true, std::memory_order_relaxed);
          break;
        }
      }
    }

    std::vector<serve::Completion> done;
    if (!sched.idle()) sched.tick(done);

    // Retired-request bookkeeping happens outside the callbacks: the
    // hook context must stay alive for the whole decode pass that
    // retires its request.
    for (const serve::Completion& c : done) {
      ctxs.erase(c.id);
      if (const auto it = req_conn.find(c.id); it != req_conn.end()) {
        if (const auto cit = conn_req.find(it->second);
            cit != conn_req.end() && cit->second == c.id) {
          conn_req.erase(cit);
        }
        req_conn.erase(it);
      }
    }

    active_pub_.store(sched.active(), std::memory_order_relaxed);
    queued_pub_.store(sched.queued(), std::memory_order_relaxed);

    if (!batch.empty()) {
      {
        std::lock_guard<std::mutex> lk(outbox_mu_);
        for (Event& e : batch) outbox_.push_back(std::move(e));
      }
      batch.clear();
      wake_io();
    }

    if (draining_pub_.load(std::memory_order_relaxed) && sched.idle()) {
      std::lock_guard<std::mutex> lk(inbox_mu_);
      if (inbox_.empty()) break;  // drained: nothing queued, nothing active
    }
  }

  {
    std::lock_guard<std::mutex> lk(outbox_mu_);
    outbox_.push_back({Event::Kind::EngineExit, 0, {}});
  }
  engine_done_.store(true, std::memory_order_release);
  wake_io();
}

// --- io thread -----------------------------------------------------------

void Server::io_main() {
  bool engine_exited = false;
  epoll_event evs[64];

  for (;;) {
    if (stop_requested_.load()) break;

    if (drain_requested_.load() && listen_fd_ >= 0) {
      // Stop accepting; existing connections keep running. The engine
      // learns about the drain through the command inbox so ordering
      // with in-flight submits stays well-defined.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      push_cmd({Cmd::Kind::Drain, 0, {}, 0});
    }

    const int n = ::epoll_wait(epoll_fd_, evs, 64, 100);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = evs[i].data.u64;
      if (key == kWakeKey) {
        std::uint64_t drainv = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drainv, sizeof(drainv));
        continue;
      }
      if (key == kListenKey) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(key);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& c = *it->second;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        if (c.streaming) stats_.disconnect_cancels.fetch_add(1);
        close_conn(c.id, /*cancel_stream=*/true);
        continue;
      }
      if (evs[i].events & EPOLLIN) read_ready(c);
      // read_ready may have closed the connection; re-validate.
      if (const auto it2 = conns_.find(key); it2 != conns_.end()) {
        if (evs[i].events & EPOLLOUT) write_ready(*it2->second);
      }
    }

    // Apply whatever the engine published (checked every iteration, not
    // only on eventfd wakeups, so a missed edge can cost 100ms at most).
    std::vector<Event> events;
    {
      std::lock_guard<std::mutex> lk(outbox_mu_);
      while (!outbox_.empty()) {
        events.push_back(std::move(outbox_.front()));
        outbox_.pop_front();
      }
    }
    for (const Event& e : events) {
      if (e.kind == Event::Kind::EngineExit) engine_exited = true;
    }
    apply_events(events);

    if (engine_exited) {
      // No more events will ever arrive: close every connection whose
      // outbuf has drained, exit once none remain.
      for (auto it = conns_.begin(); it != conns_.end();) {
        const std::uint64_t id = it->first;
        const bool flushed = it->second->out_off >= it->second->outbuf.size();
        ++it;
        if (flushed) close_conn(id, /*cancel_stream=*/false);
      }
      if (conns_.empty()) break;
    }
  }

  for (auto& [id, c] : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  conns_.clear();
  obs::gauge_set("net_open_connections", 0.0);
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: wait for next event
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>(cfg_.limits);
    conn->id = next_conn_id_++;
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[conn->id] = std::move(conn);
    stats_.accepted.fetch_add(1);
    obs::gauge_set("net_open_connections",
                   static_cast<double>(conns_.size()));
  }
}

void Server::read_ready(Conn& c) {
  const std::uint64_t id = c.id;
  char buf[8192];
  for (;;) {
    const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
    if (r > 0) {
      const HttpError e =
          c.parser.feed(std::string_view(buf, static_cast<std::size_t>(r)));
      if (e != HttpError::Ok) {
        stats_.bad_requests.fetch_add(1);
        queue_write(c, make_response(error_status(e), "application/json",
                                     error_body("malformed request"),
                                     /*keep_alive=*/false));
        if (conns_.count(id) == 0) return;  // backpressure close
        c.closing = true;
        flush(c);
        return;
      }
      process_parsed(c);
      if (conns_.count(id) == 0) return;
      continue;
    }
    if (r == 0) {  // peer closed
      if (c.streaming) stats_.disconnect_cancels.fetch_add(1);
      close_conn(id, /*cancel_stream=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    if (c.streaming) stats_.disconnect_cancels.fetch_add(1);
    close_conn(id, /*cancel_stream=*/true);
    return;
  }
}

void Server::process_parsed(Conn& c) {
  const std::uint64_t id = c.id;
  // A streaming connection defers its next pipelined request until the
  // done event flushes (finish_stream resets the parser then).
  while (!c.streaming && !c.closing && c.parser.done()) {
    stats_.requests.fetch_add(1);
    obs::count("net_http_requests_total");
    route(c, c.parser.request());
    if (conns_.count(id) == 0) return;  // closed by backpressure
    if (c.streaming || c.closing) break;
    const HttpError e = c.parser.reset();
    if (e != HttpError::Ok) {
      stats_.bad_requests.fetch_add(1);
      queue_write(c, make_response(error_status(e), "application/json",
                                   error_body("malformed request"),
                                   /*keep_alive=*/false));
      if (conns_.count(id) == 0) return;
      c.closing = true;
      break;
    }
  }
  flush(c);
}

void Server::route(Conn& c, const HttpRequest& req) {
  const std::uint64_t id = c.id;
  std::string_view target = req.target;
  if (const auto q = target.find('?'); q != std::string_view::npos) {
    target = target.substr(0, q);
  }
  const bool ka = req.keep_alive();

  if (req.method == "GET" && target == "/healthz") {
    std::string body = "{\"status\":\"";
    body += draining_pub_.load(std::memory_order_relaxed) ||
                    drain_requested_.load()
                ? "draining"
                : "ok";
    body += "\",\"active\":";
    body += std::to_string(active_pub_.load(std::memory_order_relaxed));
    body += ",\"queued\":";
    body += std::to_string(queued_pub_.load(std::memory_order_relaxed));
    body += "}";
    queue_write(c, make_response(200, "application/json", body, ka));
  } else if (req.method == "GET" && target == "/metrics") {
    // Fold the SLO windows into gauges at scrape time so every scrape
    // sees attainment/burn over the seconds that just elapsed (no-op
    // unless a front-end armed the monitor).
    obs::SloMonitor::global().publish(
        static_cast<std::uint64_t>(steady_now_us()));
    queue_write(c, make_response(200, "text/plain; version=0.0.4",
                                 obs::Registry::global().prometheus(), ka));
  } else if (req.method == "GET" && target == "/varz") {
    std::string body =
        backend_.varz ? backend_.varz()
                      : std::string("{\"server\":\"llmfi_serve\"}");
    queue_write(c, make_response(200, "application/json", body, ka));
  } else if (req.method == "GET" && target == "/v1/requests") {
    // Full flight-recorder dump (the CI artifact): every event currently
    // held in the per-thread rings, merged and time-ordered.
    queue_write(c, make_response(200, "application/json",
                                 obs::recorder_json(), ka));
  } else if (req.method == "GET" &&
             target.size() > 13 &&
             target.substr(0, 13) == "/v1/requests/") {
    const auto rid = parse_request_id(target.substr(13));
    std::optional<std::string> timeline;
    if (rid.has_value()) {
      timeline = obs::recorder_request_timeline_json(*rid);
    }
    if (timeline.has_value()) {
      queue_write(c, make_response(200, "application/json", *timeline, ka));
    } else {
      stats_.bad_requests.fetch_add(1);
      queue_write(c, make_response(404, "application/json",
                                   error_body("unknown request id"), ka));
    }
  } else if (req.method == "POST" && target == "/v1/completions") {
    if (draining_pub_.load(std::memory_order_relaxed) ||
        drain_requested_.load()) {
      stats_.rejected_draining.fetch_add(1);
      queue_write(c, make_response(503, "application/json",
                                   error_body("draining"), ka));
    } else {
      std::vector<tok::TokenId> prompt;
      bool bad = false;
      if (const auto ids = json_int_array_field(req.body, "prompt_ids")) {
        prompt.reserve(ids->size());
        for (const std::int64_t v : *ids) {
          if (v < 0 || v >= backend_.vocab.size()) {
            bad = true;
            break;
          }
          prompt.push_back(static_cast<tok::TokenId>(v));
        }
      } else if (const auto text = json_string_field(req.body, "prompt")) {
        prompt.push_back(backend_.vocab.bos());
        for (const tok::TokenId t : backend_.vocab.encode(*text)) {
          prompt.push_back(t);
        }
      }
      if (bad || prompt.empty()) {
        stats_.bad_requests.fetch_add(1);
        queue_write(c,
                    make_response(400, "application/json",
                                  error_body("need prompt or prompt_ids"),
                                  ka));
      } else if (static_cast<tn::Index>(prompt.size()) > max_prompt_tokens_) {
        // The admission prefill could not fit it in the KV cache.
        stats_.bad_requests.fetch_add(1);
        std::string msg = "prompt has ";
        msg += std::to_string(prompt.size());
        msg += " tokens; the limit is max_seq = ";
        msg += std::to_string(max_prompt_tokens_);
        queue_write(c, make_response(400, "application/json",
                                     error_body(msg), ka));
      } else {
        int max_new = backend_.default_max_new_tokens;
        if (const auto m = json_int_field(req.body, "max_new_tokens")) {
          max_new = static_cast<int>(*m);
        }
        max_new = std::min(std::max(max_new, 1), cfg_.max_new_tokens);
        stats_.completions.fetch_add(1);
        c.streaming = true;
        c.stream_keep_alive = ka;
        queue_write(c, make_stream_headers(200, "text/event-stream", ka));
        push_cmd({Cmd::Kind::Submit, c.id, std::move(prompt), max_new});
      }
    }
  } else {
    stats_.bad_requests.fetch_add(1);
    queue_write(c, make_response(404, "application/json",
                                 error_body("not found"), ka));
  }
  if (const auto it = conns_.find(id); it != conns_.end()) {
    Conn& alive = *it->second;
    if (!alive.streaming && !ka) alive.closing = true;
  }
}

void Server::apply_events(std::vector<Event>& events) {
  for (Event& e : events) {
    if (e.kind == Event::Kind::EngineExit) continue;
    const auto it = conns_.find(e.conn_id);
    if (it == conns_.end()) continue;  // client went away: drop the event
    Conn& c = *it->second;
    if (!c.streaming) continue;
    if (e.kind == Event::Kind::Token) {
      obs::count("net_sse_events_total");
      queue_write(c, chunk(sse_event(e.payload)));
      if (conns_.count(e.conn_id)) flush(c);
    } else {
      finish_stream(c, e);
    }
  }
}

void Server::finish_stream(Conn& c, const Event& ev) {
  const std::uint64_t id = c.id;
  obs::count("net_sse_events_total");
  std::string tail = chunk(sse_event(ev.payload));
  tail += chunk(sse_event("[DONE]"));
  tail += last_chunk();
  queue_write(c, tail);
  if (conns_.count(id) == 0) return;
  c.streaming = false;
  if (!c.stream_keep_alive) {
    c.closing = true;
    flush(c);
    return;
  }
  // Pipelined bytes may already hold the next request.
  const HttpError e = c.parser.reset();
  if (e != HttpError::Ok) {
    stats_.bad_requests.fetch_add(1);
    queue_write(c, make_response(error_status(e), "application/json",
                                 error_body("malformed request"),
                                 /*keep_alive=*/false));
    if (conns_.count(id) == 0) return;
    c.closing = true;
    flush(c);
    return;
  }
  process_parsed(c);
}

void Server::queue_write(Conn& c, std::string_view data) {
  c.outbuf.append(data);
  if (c.outbuf.size() - c.out_off > cfg_.max_outbuf_bytes) {
    // The peer is not reading fast enough (or at all): cancel the
    // stream rather than buffering without bound.
    stats_.backpressure_closes.fetch_add(1);
    close_conn(c.id, /*cancel_stream=*/true);
  }
}

void Server::flush(Conn& c) {
  if (c.out_off > 0) {
    c.outbuf.erase(0, c.out_off);
    c.out_off = 0;
  }
  while (c.out_off < c.outbuf.size()) {
    const ssize_t w = ::send(c.fd, c.outbuf.data() + c.out_off,
                             c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w < 0 && errno == EINTR) continue;
    if (c.streaming) stats_.disconnect_cancels.fetch_add(1);
    close_conn(c.id, /*cancel_stream=*/true);
    return;
  }
  if (c.out_off >= c.outbuf.size()) {
    c.outbuf.clear();
    c.out_off = 0;
    if (c.want_write) {
      c.want_write = false;
      update_epoll(c);
    }
    if (c.closing) close_conn(c.id, /*cancel_stream=*/false);
  } else if (!c.want_write) {
    c.want_write = true;
    update_epoll(c);
  }
}

void Server::write_ready(Conn& c) { flush(c); }

void Server::update_epoll(Conn& c) {
  epoll_event ev{};
  ev.events = EPOLLIN | (c.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = c.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void Server::close_conn(std::uint64_t conn_id, bool cancel_stream) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (cancel_stream && c.streaming) {
    push_cmd({Cmd::Kind::Cancel, conn_id, {}, 0});
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  conns_.erase(it);
  obs::gauge_set("net_open_connections", static_cast<double>(conns_.size()));
}

}  // namespace llmfi::net
