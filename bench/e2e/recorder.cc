#include "recorder.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace e2e {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void CountAllocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  CountAllocation();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  CountAllocation();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t AllocCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

Recorder::Recorder(bool enabled) : enabled_(enabled), epoch_us_(NowUs()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int Recorder::Open(const char* name, double begin_us, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.begin_us = begin_us;
  s.end_us = begin_us;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Recorder::Close(int span, double end_us) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != span) {
    std::fprintf(stderr, "recorder: span closed out of order\n");
    std::abort();
  }
  spans_[static_cast<std::size_t>(span)].end_us = end_us;
  open_.pop_back();
}

int Recorder::Add(const char* name, double begin_us, double end_us,
                  int parent, std::int64_t request, int lane) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, begin_us, end_us, parent, request, lane});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, Recorder::Totals> Recorder::Summarize() const {
  // Children are contained in their parent and never overlap each other
  // (they run one after another on the recording thread), so the time they
  // cover is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.begin_us;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_us - spans_[i].begin_us;
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_us += dur;
    t.self_us += dur - child_us[i];
  }
  return out;
}

bool Recorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"request\": %lld, "
                 "\"begin_us\": %.3f, \"end_us\": %.3f}}\n",
                 i == 0 ? "" : ",", s.name, s.lane, s.begin_us - epoch_us_,
                 s.end_us - s.begin_us, i, s.parent,
                 static_cast<long long>(s.request), s.begin_us - epoch_us_,
                 s.end_us - epoch_us_);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Recorder::PrintSelfTimes(std::FILE* out) const {
  const std::map<std::string, Totals> totals = Summarize();
  std::vector<std::pair<std::string, Totals>> rows(totals.begin(),
                                                   totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  double self_sum = 0;
  for (const auto& row : rows) self_sum += row.second.self_us;
  std::fprintf(out, "%-36s %9s %12s %12s %7s\n", "span", "count",
               "total_ms", "self_ms", "self%");
  for (const auto& [name, t] : rows) {
    std::fprintf(out, "%-36s %9llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_us / 1e3,
                 t.self_us / 1e3,
                 self_sum > 0 ? 100.0 * t.self_us / self_sum : 0.0);
  }
}

}  // namespace e2e

// Counting global allocation functions. Every allocation in the binary —
// the library's and the standard library's included — goes through these.
void* operator new(std::size_t size) { return e2e::Allocate(size); }
void* operator new[](std::size_t size) { return e2e::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  e2e::CountAllocation();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  e2e::CountAllocation();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return e2e::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return e2e::AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
