#pragma once
// epoll HTTP/SSE front-end over the continuous-batching scheduler
// (DESIGN.md §15). Two threads split the work:
//
//   * io thread     — non-blocking epoll loop: accepts connections,
//                     drives the incremental request parser, routes
//                     (/v1/completions, /metrics, /healthz), flushes
//                     per-connection write buffers, and turns engine
//                     events into SSE frames. Woken from blocking
//                     epoll_wait by an eventfd whenever the engine
//                     thread publishes events.
//   * engine thread — sole owner of the serve::Scheduler (which is
//                     single-threaded by design): drains a command
//                     inbox (submit / cancel / drain), runs tick()
//                     decode passes while work is active, and batches
//                     token/done events back to the io thread.
//
// Token flow: Request::on_token fires inside tick() on the engine
// thread, appends to a per-tick event batch, and one outbox push + one
// eventfd write per tick hands the batch to the io thread, which frames
// each event as an SSE chunk on the owning connection. A client that
// disconnects mid-stream triggers a Cancel command; the scheduler
// retires the slot immediately and its paged KV goes back to the pool
// before the next admission check. Connections whose write buffer
// exceeds the backpressure cap are treated the same way (cancel +
// close) — an unread stream must not buffer without bound.
//
// Drain: request_drain() is async-signal-safe (one atomic store + one
// eventfd write). The io thread stops accepting, completion POSTs get
// 503, in-flight streams finish, and both threads exit once the
// scheduler is idle and every outbuf has flushed. wait() joins.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "serve/scheduler.h"
#include "tokenizer/vocab.h"

namespace llmfi::net {

// Per-request fault / detector context, created on the engine thread at
// admission and destroyed after the request retires. The tool layer
// implements this with a ComputationalFaultInjector plus an optional
// detector stack; the server only knows the two touchpoints.
class RequestHookCtx {
 public:
  virtual ~RequestHookCtx() = default;
  // Installed as Request::hook for this request's rows (may be null).
  virtual nn::LinearHook* linear_hook() { return nullptr; }
  // Runs on the engine thread after the request retires. The returned
  // string (e.g. a detector verdict) is embedded verbatim as the
  // "detector" field of the SSE done event; empty = field omitted.
  virtual std::string on_complete(const serve::Completion& c) {
    (void)c;
    return {};
  }
};
using HookFactory =
    std::function<std::unique_ptr<RequestHookCtx>(std::uint64_t request_id)>;

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = bind an ephemeral port; Server::port() reports it
  // Server-side clamp on a request's max_new_tokens (and the default
  // when the body omits the field).
  int max_new_tokens = 64;
  // Per-connection write-buffer cap: a streaming connection whose
  // unflushed bytes exceed this is cancelled and closed (backpressure).
  std::size_t max_outbuf_bytes = 1 << 20;
  HttpLimits limits;
};

// Front-end counters, all atomics — readable from any thread at any
// time (tests assert on them after wait()).
struct ServerStats {
  std::atomic<std::uint64_t> accepted{0};        // connections accepted
  std::atomic<std::uint64_t> requests{0};        // HTTP requests parsed
  std::atomic<std::uint64_t> completions{0};     // streams admitted
  std::atomic<std::uint64_t> bad_requests{0};    // 4xx responses
  std::atomic<std::uint64_t> rejected_draining{0};  // 503 during drain
  std::atomic<std::uint64_t> disconnect_cancels{0};
  std::atomic<std::uint64_t> backpressure_closes{0};
};

class Server {
 public:
  // Everything the engine thread needs. `sched` must not be touched by
  // any other thread between start() and wait()/stop() — the engine
  // thread is its sole owner. `vocab` is read-only shared state (text
  // decode of streamed tokens, text-prompt encode).
  struct Backend {
    serve::Scheduler& sched;
    const tok::Vocab& vocab;
    // Applied when the request body omits max_new_tokens; bodies that
    // set it are clamped to ServerConfig::max_new_tokens.
    int default_max_new_tokens = 32;
    HookFactory hook_factory;  // null = no per-request fault context
    // GET /varz body provider (JSON build/config snapshot — model shape,
    // kernel tier, SLO thresholds...). Must be thread-safe: the io
    // thread calls it per scrape. Null = a minimal built-in body.
    std::function<std::string()> varz;
  };

  Server(ServerConfig cfg, Backend backend);
  ~Server();  // stop() + join if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens (throws std::runtime_error on failure), then spawns
  // the io and engine threads. port() is valid once start() returns.
  void start();
  int port() const { return bound_port_; }

  // Graceful shutdown trigger; async-signal-safe (atomic store + one
  // eventfd write), so SIGTERM handlers may call it directly.
  void request_drain();

  // Blocks until both threads exit (for a drain-triggered shutdown,
  // until in-flight work finishes and flushes).
  void wait();

  // Hard stop: abandons in-flight work, closes every fd, joins.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const ServerStats& stats() const { return stats_; }

  // Snapshot published by the engine thread after every loop iteration
  // (for /healthz and tests; reads never touch the scheduler).
  int active() const { return active_pub_.load(std::memory_order_relaxed); }
  std::size_t queued() const {
    return queued_pub_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  // io -> engine commands.
  struct Cmd {
    enum class Kind { Submit, Cancel, Drain } kind;
    std::uint64_t conn_id = 0;
    std::vector<tok::TokenId> prompt;
    int max_new_tokens = 0;
  };

  // engine -> io events (one outbox push + eventfd write per tick).
  struct Event {
    enum class Kind { Token, Done, EngineExit } kind;
    std::uint64_t conn_id = 0;
    std::string payload;  // JSON body of the SSE data line
  };

  void io_main();
  void engine_main();

  // --- io-thread helpers (only the io thread touches Conn state) ---
  void accept_ready();
  void read_ready(Conn& c);
  void write_ready(Conn& c);
  void process_parsed(Conn& c);
  void route(Conn& c, const HttpRequest& req);
  void queue_write(Conn& c, std::string_view data);
  void flush(Conn& c);
  void close_conn(std::uint64_t conn_id, bool cancel_stream);
  void update_epoll(Conn& c);
  void apply_events(std::vector<Event>& events);
  void finish_stream(Conn& c, const Event& ev);

  void push_cmd(Cmd cmd);
  void wake_io();

  ServerConfig cfg_;
  Backend backend_;
  // Read from the scheduler before the engine thread owns it, so the io
  // thread can reject over-long prompts (400) without touching it.
  tn::Index max_prompt_tokens_ = 0;
  ServerStats stats_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: engine events + request_drain wakeups
  int bound_port_ = 0;

  std::thread io_thread_;
  std::thread engine_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> engine_done_{false};

  // Engine-published snapshot for /healthz.
  std::atomic<int> active_pub_{0};
  std::atomic<std::size_t> queued_pub_{0};
  std::atomic<bool> draining_pub_{false};

  std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;
  std::deque<Cmd> inbox_;

  std::mutex outbox_mu_;
  std::deque<Event> outbox_;

  // io-thread-only state.
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
};

}  // namespace llmfi::net
