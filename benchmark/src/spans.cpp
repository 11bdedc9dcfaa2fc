#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

namespace llmfi::bench {

namespace {

struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;  // -1 while open
  int parent;
  std::int64_t id;
  int tid;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;  // guards g_records
std::vector<Record> g_records;
std::atomic<int> g_next_tid{1};
thread_local int t_current = -1;  // innermost open span of this thread
thread_local const int t_tid = g_next_tid.fetch_add(1);

const Clock::time_point g_epoch = Clock::now();

std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

// Total length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_s = 0.0, cur_e = -1.0;
  for (const auto& [s, e] : iv) {
    if (cur_e < cur_s || s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

// Self time in µs of every closed benchmark span, indexed like g_records.
std::vector<double> bench_self_us(const std::vector<Record>& recs) {
  std::vector<std::vector<std::pair<double, double>>> kids(recs.size());
  for (const Record& r : recs) {
    if (r.parent >= 0 && r.end_ns >= 0) {
      kids[static_cast<std::size_t>(r.parent)].push_back(
          {r.start_ns / 1e3, r.end_ns / 1e3});
    }
  }
  std::vector<double> self(recs.size(), 0.0);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].end_ns < 0) continue;
    const double dur = (recs[i].end_ns - recs[i].start_ns) / 1e3;
    self[i] = std::max(0.0, dur - union_length(std::move(kids[i])));
  }
  return self;
}

// Integer value following `key` (e.g. "\"ts\":") in one trace line.
bool find_int(const std::string& line, const char* key, std::int64_t* out) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + std::char_traits<char>::length(key);
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  if (end == p) return false;
  *out = v;
  return true;
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

void spans_enable() { g_enabled.store(true); }

Span::Span(const char* name, std::int64_t id, int parent)
    : t0_(Clock::now()) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  prev_ = t_current;
  std::lock_guard<std::mutex> lock(g_mu);
  idx_ = static_cast<int>(g_records.size());
  g_records.push_back({name, ns_since_epoch(t0_), -1,
                       parent == kInherit ? t_current : parent, id, t_tid});
  t_current = idx_;
}

double Span::stop() {
  if (dur_s_ >= 0.0) return dur_s_;
  const Clock::time_point t1 = Clock::now();
  dur_s_ = std::chrono::duration<double>(t1 - t0_).count();
  if (idx_ >= 0) {
    {
      std::lock_guard<std::mutex> lock(g_mu);
      g_records[static_cast<std::size_t>(idx_)].end_ns = ns_since_epoch(t1);
    }
    t_current = prev_;
  }
  return dur_s_;
}

std::vector<ProgramSpan> parse_program_trace(const std::string& json) {
  std::vector<ProgramSpan> out;
  // Per thread: indices into `out` of the open spans, and the child time
  // accumulated under each.
  std::map<int, std::vector<std::pair<std::size_t, double>>> open;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t ph_at = line.find("\"ph\":\"");
    if (ph_at == std::string::npos) continue;
    const char ph = line[ph_at + 6];
    std::int64_t ts = 0, tid = 0;
    if (!find_int(line, "\"ts\":", &ts) || !find_int(line, "\"tid\":", &tid)) {
      continue;
    }
    auto& stack = open[static_cast<int>(tid)];
    if (ph == 'B') {
      ProgramSpan s;
      const std::size_t n0 = line.find("\"name\":\"") + 8;
      s.name = line.substr(n0, line.find('"', n0) - n0);
      s.start_us = static_cast<double>(ts);
      s.dur_us = -1.0;  // open until its E event
      s.tid = static_cast<int>(tid);
      find_int(line, "\"args\":{\"v\":", &s.arg);
      stack.push_back({out.size(), 0.0});
      out.push_back(std::move(s));
    } else if (ph == 'E' && !stack.empty()) {
      const auto [idx, child_us] = stack.back();
      stack.pop_back();
      ProgramSpan& s = out[idx];
      s.dur_us = static_cast<double>(ts) - s.start_us;
      s.self_us = std::max(0.0, s.dur_us - child_us);
      if (!stack.empty()) stack.back().second += s.dur_us;
    }
  }
  // Spans still open when the trace was written have no duration.
  std::erase_if(out, [](const ProgramSpan& s) { return s.dur_us < 0.0; });
  return out;
}

std::vector<std::pair<std::string, SelfTime>> span_self_times() {
  std::lock_guard<std::mutex> lock(g_mu);
  const std::vector<double> self = bench_self_us(g_records);
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    if (r.end_ns < 0) continue;
    SelfTime& t = by_name[r.name];
    ++t.count;
    t.total_us += (r.end_ns - r.start_ns) / 1e3;
    t.self_us += self[i];
  }
  return {by_name.begin(), by_name.end()};
}

std::vector<std::pair<std::string, SelfTime>> program_self_times(
    const std::vector<ProgramSpan>& spans) {
  std::map<std::string, SelfTime> by_name;
  for (const ProgramSpan& s : spans) {
    SelfTime& t = by_name[s.name];
    ++t.count;
    t.total_us += s.dur_us;
    t.self_us += s.self_us;
  }
  return {by_name.begin(), by_name.end()};
}

std::string self_time_json(
    const std::vector<std::pair<std::string, SelfTime>>& times) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto& [name, t] = times[i];
    if (i > 0) os << ", ";
    json_string(os, name);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ": {\"count\": %lld, \"total_us\": %.1f, \"self_us\": %.1f}",
                  t.count, t.total_us, t.self_us);
    os << buf;
  }
  os << "}";
  return os.str();
}

bool write_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<ProgramSpan>>>&
        program) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
        "\"benchmark\"}}";
  {
    std::lock_guard<std::mutex> lock(g_mu);
    const std::vector<double> self = bench_self_us(g_records);
    char buf[160];
    for (std::size_t i = 0; i < g_records.size(); ++i) {
      const Record& r = g_records[i];
      if (r.end_ns < 0) continue;
      os << ",\n{\"name\":";
      json_string(os, r.name);
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%d,"
                    "\"self_us\":%.3f}}",
                    r.tid, r.start_ns / 1e3, (r.end_ns - r.start_ns) / 1e3,
                    static_cast<long long>(r.id), r.parent, self[i]);
      os << buf;
    }
  }
  int pid = 2;
  for (const auto& [source, spans] : program) {
    os << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":";
    json_string(os, source);
    os << "}}";
    char buf[160];
    for (const ProgramSpan& s : spans) {
      os << ",\n{\"name\":";
      json_string(os, s.name);
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.0f,"
                    "\"dur\":%.0f,\"args\":{\"v\":%lld,\"self_us\":%.0f}}",
                    pid, s.tid, s.start_us, s.dur_us,
                    static_cast<long long>(s.arg), s.self_us);
      os << buf;
    }
    ++pid;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace llmfi::bench
