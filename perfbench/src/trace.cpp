#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

Tracer::Span Tracer::span(const char* name) {
  if (!enabled_) return Span(nullptr, -1);
  const int parent = open_.empty() ? -1 : open_.back();
  records_.push_back(Record{name, now_s(), 0.0, parent});
  const int index = static_cast<int>(records_.size()) - 1;
  open_.push_back(index);
  return Span(this, index);
}

void Tracer::close(int index) {
  records_[static_cast<std::size_t>(index)].end_s = now_s();
  // Spans are scoped objects, so they close innermost first.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back(r.end_s - r.start_s);
  }
  return out;
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  std::vector<double> self(records_.size(), 0.0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].end_s - records_[i].start_s;
  }
  // The benchmark is single-threaded, so children never overlap each other.
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      self[static_cast<std::size_t>(r.parent)] -= r.end_s - r.start_s;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name == name) out.push_back(self[i]);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d}%s\n",
                 i, r.name.c_str(), r.start_s, r.end_s, r.parent,
                 i + 1 < records_.size() ? "," : "");
  }
  std::map<std::string, bool> names;
  for (const Record& r : records_) names[r.name] = true;
  std::fprintf(f, "], \"summary\": {\n");
  std::size_t k = 0;
  for (const auto& [name, unused] : names) {
    (void)unused;
    double total = 0.0;
    double self = 0.0;
    const auto d = durations(name);
    for (double x : d) total += x;
    for (double x : self_times(name)) self += x;
    std::fprintf(f,
                 "  \"%s\": {\"count\": %zu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 name.c_str(), d.size(), total, self,
                 ++k < names.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
