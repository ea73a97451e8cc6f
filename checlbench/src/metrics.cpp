#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace checlbench {

// ---- percentiles -----------------------------------------------------------

namespace {
std::size_t rank(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank(n, q);
}

std::size_t samples_needed(double q) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < 10) ++n;
  return n;
}

double highest_supported(std::size_t n, std::initializer_list<double> qs) {
  double best = 0;
  for (const double q : qs)
    if (samples_beyond(n, q) >= 10 && q > best) best = q;
  return best;
}

namespace {
// [begin, end) op ranges of groups of whole passes: about ten groups, each
// made big enough to hold `min_ops`.  Empty when that leaves under three.
std::vector<std::pair<std::size_t, std::size_t>> pass_groups(const Loop& loop,
                                                             std::uint64_t pass,
                                                             std::size_t min_ops) {
  const std::size_t n = loop.ms.size();
  std::size_t first = 0;
  while (first < n && (loop.first_index + first) % pass != 0) ++first;
  const std::size_t passes = (n - first) / pass;
  const std::size_t per_group =
      std::max<std::size_t>({1, passes / 10, (min_ops + pass - 1) / pass}) * pass;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t g = first; g + per_group <= n; g += per_group) out.push_back({g, g + per_group});
  if (out.size() < 3) out.clear();
  return out;
}
}  // namespace

double ops_per_s(const Loop& loop, std::uint64_t pass) {
  std::vector<double> rates;
  for (const auto& [b, e] : pass_groups(loop, pass, 1)) {
    const std::uint64_t end = e < loop.ms.size() ? loop.start_ns[e] : loop.end_ns;
    rates.push_back(static_cast<double>(e - b) * 1e9 /
                    static_cast<double>(end - loop.start_ns[b]));
  }
  if (rates.empty()) return static_cast<double>(loop.ms.size()) / loop.wall_s;
  return percentile(rates, 0.5);
}

double op_percentile(const Loop& loop, std::uint64_t pass, double q) {
  std::vector<double> per_group;
  for (const auto& [b, e] : pass_groups(loop, pass, samples_needed(q)))
    per_group.push_back(percentile(
        std::vector<double>(loop.ms.begin() + static_cast<std::ptrdiff_t>(b),
                            loop.ms.begin() + static_cast<std::ptrdiff_t>(e)),
        q));
  if (per_group.empty()) return percentile(loop.ms, q);
  return percentile(per_group, 0.5);
}

// ---- metric sheet ------------------------------------------------------------

void Metrics::add(const std::string& name, double value, const std::string& unit) {
  m_.push_back({name, value, unit, {}});
}

void Metrics::ratio(const std::string& name, double num, double den,
                    const std::string& unit, const std::string& base) {
  m_.push_back({name, den != 0 ? num / den : 0.0, unit, base});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& m : m_)
    if (m.name == name) return &m;
  return nullptr;
}

std::vector<std::string> Metrics::missing_bases() const {
  std::vector<std::string> out;
  for (const Metric& m : m_)
    if (!m.base.empty() && find(m.base) == nullptr) out.push_back(m.name);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < m_.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(m_[i].name) + ": {\"value\": " + json_number(m_[i].value) +
           ", \"unit\": " + json_string(m_[i].unit) + "}";
  }
  return out + "}";
}

// ---- process-tree accounting -----------------------------------------------

namespace {
Usage from_rusage(const rusage& r) {
  Usage u;
  u.user_s = static_cast<double>(r.ru_utime.tv_sec) +
             static_cast<double>(r.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(r.ru_stime.tv_sec) +
            static_cast<double>(r.ru_stime.tv_usec) * 1e-6;
  u.maxrss_kb = r.ru_maxrss;
  u.ctxsw = r.ru_nvcsw + r.ru_nivcsw;
  return u;
}
}  // namespace

Usage usage_self() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return from_rusage(r);
}

Usage usage_children() {
  rusage r{};
  getrusage(RUSAGE_CHILDREN, &r);
  return from_rusage(r);
}

Usage usage_delta(const Usage& a, const Usage& b) {
  Usage d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.maxrss_kb = a.maxrss_kb;
  d.ctxsw = a.ctxsw - b.ctxsw;
  return d;
}

double proc_stat_cpu_s(pid_t pid, double* sys_s) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return -1;
  // The command name may contain spaces; fields resume after the last ')'.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream in(line.substr(close + 2));
  std::string field;
  // Fields 3.. : state ppid pgrp session tty tpgid flags minflt cminflt
  // majflt cmajflt utime stime — utime is the 12th after ')'.
  unsigned long long utime = 0, stime = 0;
  for (int i = 0; i < 11 && in >> field; ++i) {
  }
  if (!(in >> utime >> stime)) return -1;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  if (sys_s != nullptr) *sys_s = static_cast<double>(stime) / tick;
  return static_cast<double>(utime + stime) / tick;
}

// ---- tracer ------------------------------------------------------------------

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::bench: return "bench";
    case Layer::wrapper: return "wrapper";
    case Layer::ipc: return "ipc";
    case Layer::proxy: return "proxy";
    case Layer::clc: return "clc";
    case Layer::simcl: return "simcl";
    case Layer::cpr: return "cpr";
    case Layer::slimcr: return "slimcr";
    case Layer::snapstore: return "snapstore";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::open(Layer l, const char* name, std::uint64_t t) {
  std::int64_t rec = -1;
  if (recs_.size() < cap_) {
    rec = static_cast<std::int64_t>(recs_.size());
    std::int64_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
      if (it->rec >= 0) {
        parent = it->rec;
        break;
      }
    recs_.push_back({name, l, t, 0, parent});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, l, t, 0, rec});
}

std::uint64_t Tracer::close(std::uint64_t t) {
  if (stack_.empty()) return 0;
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t > o.start ? t - o.start : 0;
  if (o.rec >= 0) recs_[static_cast<std::size_t>(o.rec)].dur_ns = dur;
  self_ns_[static_cast<std::size_t>(o.layer)] += dur > o.child_ns ? dur - o.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  return dur;
}

bool Tracer::write_chrome(const std::string& path, const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t t0 = recs_.empty() ? 0 : recs_.front().start_ns;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ns\", \"metadata\": %s, \"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
               "\"args\": {\"name\": \"checlbench\"}}",
               meta_json.c_str());
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld}}",
                 r.name, layer_name(r.layer),
                 static_cast<double>(r.start_ns - t0) / 1e3,
                 static_cast<double>(r.dur_ns) / 1e3, i,
                 static_cast<long long>(r.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace checlbench
