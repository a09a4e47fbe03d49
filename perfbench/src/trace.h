#pragma once
// Span recorder for the traced run: the benchmark wraps each call it makes
// into a layer of the program in a span (name, start, end, parent). Spans
// stay in memory and are written out once, at exit. A disabled tracer reads
// no clock and records nothing.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;  // since the tracer was created
    double end_s = 0.0;
    int parent = -1;  // index into records(), -1 for a root span
  };

  /// Closes its span when destroyed.
  class Span {
   public:
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open span.
  [[nodiscard]] Span span(const char* name);

  /// Inclusive durations (s) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Self times (s): each span's duration minus what its children cover.
  std::vector<double> self_times(const std::string& name) const;

  /// Writes every span plus a per-name summary (count, total and self
  /// seconds) as JSON. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  double now_s() const;
  void close(int index);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

}  // namespace perfbench
