#pragma once

// Shared plumbing of the repository benchmark: the two host clocks,
// seeded mixing, percentiles, the metric sink that prints the result
// line, and the in-memory span log of the traced run.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host wall clock, seconds since an arbitrary epoch.
inline double wall_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// Process CPU time (user + sys, all threads), seconds.  The pools park
/// on condition variables, so this counts work, not spinning.
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// splitmix64 finalizer over a combined pair: every generated input is
/// mix(seed, stream), so one --seed fixes the whole workload.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Set-up cost, median over repetitions on both host clocks.
struct SetupTime {
  double cpu_s = 0;   ///< process CPU seconds: the bounded setup_s
  double wall_s = 0;  ///< host wall seconds, printed beside it
};

/// Time `reps` calls of `once` on both clocks, each after an untimed
/// `teardown` of the previous repetition; medians.
template <class Teardown, class Fn>
SetupTime time_setup(unsigned reps, Teardown&& teardown, Fn&& once) {
  std::vector<double> cpu, wall;
  for (unsigned r = 0; r < reps; ++r) {
    teardown();
    const double c0 = cpu_s(), w0 = wall_s();
    once();
    cpu.push_back(cpu_s() - c0);
    wall.push_back(wall_s() - w0);
  }
  return {median(std::move(cpu)), median(std::move(wall))};
}

/// FNV-1a over raw bytes: the endpoint digest two runs of one seed must
/// reproduce bit for bit.
class Digest {
 public:
  template <class T>
  void add(const T& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Named metrics in print order.  print() writes one human-readable
/// line per metric and then the result object as the LAST stdout line.
class MetricSink {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] std::optional<double> value(const std::string& name) const {
    for (const auto& m : metrics_)
      if (m.name == name) return m.value;
    return std::nullopt;
  }
  void take_notes(const MetricSink& other) {
    notes_.insert(notes_.end(), other.notes_.begin(), other.notes_.end());
  }

  void print(std::ostream& os, bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    char buf[64];
    for (const auto& line : notes_) os << line << "\n";
    for (const auto& m : metrics_) {
      std::snprintf(buf, sizeof buf, "%.10g", m.value);
      os << "metric " << m.name << " = " << buf << " " << m.unit << "\n";
    }
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      os << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    os << "}}" << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// In-memory span log of the traced run: one span per request lifetime
/// (keyed by request id), per submit() and step() call, and per layer
/// probe.  Nothing is recorded while disabled; write() dumps Chrome
/// trace-event JSON at exit.
class SpanLog {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  void enable(bool on) { enabled_ = on; }

  std::size_t begin(const std::string& name, const char* cat, std::uint64_t id,
                    std::size_t parent = npos) {
    if (!enabled_) return npos;
    const auto t0 = Clock::now();
    spans_.push_back({name, cat, id, us_since_epoch(t0), -1.0, parent});
    recording_ += Clock::now() - t0;
    return spans_.size() - 1;
  }
  void end(std::size_t handle) {
    if (handle == npos) return;
    const auto t0 = Clock::now();
    spans_[handle].end_us = us_since_epoch(t0);
    recording_ += Clock::now() - t0;
  }
  /// Re-key a span once its id is known (a request's id comes back
  /// from the submit() its span encloses).
  void set_id(std::size_t handle, std::uint64_t id) {
    if (handle != npos) spans_[handle].id = id;
  }
  /// Host seconds spent recording spans: what tracing adds to the run.
  [[nodiscard]] double recording_s() const {
    return std::chrono::duration<double>(recording_).count();
  }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const double end = s.end_us >= 0.0 ? s.end_us : s.start_us;
      os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"cat\": \""
         << s.cat << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": \"" << s.cat
         << "\", \"ts\": " << s.start_us << ", \"dur\": " << (end - s.start_us)
         << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
         << (s.parent == npos ? -1 : static_cast<long long>(s.parent)) << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    std::uint64_t id;
    double start_us;
    double end_us;
    std::size_t parent;
  };
  [[nodiscard]] double us_since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  Clock::duration recording_{};
  std::vector<Span> spans_;
};

/// Parse a Prometheus text exposition into name{labels} -> value
/// (counters, gauges and float counters; histogram series included).
inline std::map<std::string, double> parse_exposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

/// Counter deltas between two scrapes (missing series read as zero).
class Scrape {
 public:
  Scrape() = default;
  explicit Scrape(std::map<std::string, double> v) : v_(std::move(v)) {}
  [[nodiscard]] double get(const std::string& key) const {
    const auto it = v_.find(key);
    return it == v_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double delta(const Scrape& before, const std::string& key) const {
    return get(key) - before.get(key);
  }

 private:
  std::map<std::string, double> v_;
};

inline double safe_div(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace perfbench
