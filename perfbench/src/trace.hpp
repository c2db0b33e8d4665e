// Span recorder for the traced benchmark run.
//
// The benchmark wraps every call it makes into a layer of the library
// (Session construction, run, apply, submit->wait, direct graph:: probes)
// in a Span. A span records its name, start, end, the span that caused it,
// the operation it belongs to, and named values taken from what the call
// returned (api::Result phases, ApplyReport counters, Response timings).
// Spans stay in memory and are written once, as Chrome trace-event JSON,
// when the run ends. A Span built with a null tracer records nothing, so
// untraced operations pay only a pointer test.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/timer.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root span
    std::uint64_t op = 0;      // operation the span belongs to
    std::string name;
    double start_s = 0.0;  // seconds since the tracer was created
    double end_s = 0.0;
    std::vector<std::pair<std::string, double>> values;
  };

  /// Every recorded value, by name, across all spans in record order.
  [[nodiscard]] std::map<std::string, std::vector<double>> values() const;
  [[nodiscard]] std::size_t size() const;
  /// Writes the spans as Chrome trace-event JSON; false on an I/O error.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  friend class Span;
  [[nodiscard]] std::uint64_t next_id();
  [[nodiscard]] double now_s() const { return clock_.elapsed_s(); }
  void commit(Record record);

  distbc::WallTimer clock_;
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<Record> records_;
};

/// One span; committed to its tracer when it goes out of scope.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::uint64_t op,
       std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  void set(std::string key, double value);
  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  Tracer::Record record_;
};

}  // namespace perfbench
