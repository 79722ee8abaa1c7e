// In-memory span tracer and sample statistics.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace e2e {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

int Tracer::Buffer::Add(const std::string& name, uint64_t request, int parent,
                        Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, request, parent, MicrosBetween(origin_, start),
                    MicrosBetween(origin_, end)});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Buffer::End(int span, Clock::time_point end) {
  spans_[static_cast<size_t>(span)].end_us = MicrosBetween(origin_, end);
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->origin_ = origin_;
  return buffers_.back().get();
}

std::map<std::string, double> Tracer::MedianSelfTimes() const {
  std::map<std::string, std::vector<double>> self;
  for (const auto& buf : buffers_) {
    const std::vector<Span>& spans = buf->spans_;
    std::vector<double> child_sum(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_sum[s.parent] += s.end_us - s.start_us;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].name].push_back(spans[i].end_us - spans[i].start_us - child_sum[i]);
    }
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : self) out[name] = Percentile(std::move(v), 0.5);
  return out;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  bool first = true;
  for (size_t b = 0; b < buffers_.size(); ++b) {
    const std::vector<Span>& spans = buffers_[b]->spans_;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Span ids are unique per file: thread buffer index and position.
      std::fprintf(f,
                   "%s{\"id\": \"%zu.%zu\", \"parent\": %s, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}",
                   first ? "" : ",\n", b, i,
                   s.parent < 0 ? "null"
                                : ("\"" + std::to_string(b) + "." +
                                   std::to_string(s.parent) + "\"")
                                      .c_str(),
                   static_cast<unsigned long long>(s.request), s.name.c_str(),
                   s.start_us, s.end_us);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
