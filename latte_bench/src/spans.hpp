#pragma once
// Wall-clock spans recorded from the benchmark's side of each layer
// boundary (traced mode only).
//
// Every thread that records owns one lane (BatchRunner slots 0..N-1, the
// calling thread lane N), so recording takes no lock: a lane is only ever
// appended to by its own thread, and lanes are read only after the work
// that filled them has been joined.  Spans stay in memory and are written
// once, at exit, as Chrome trace-event JSON (Perfetto opens it).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace latte::bench {

/// Position of a span: its lane and its index within that lane.
struct SpanRef {
  std::uint32_t lane = 0;
  std::uint32_t index = 0;
  static constexpr std::uint32_t kNone = ~0u;
  bool valid() const { return index != kNone; }
};

inline constexpr SpanRef kNoParent{0, SpanRef::kNone};

struct Span {
  const char* name = "";   ///< static string: "nn.layer", "core.attention"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanRef parent = kNoParent;
  std::uint64_t id = 0;    ///< batch ordinal or request ordinal
  double duration_ms() const { return 1e-6 * double(end_ns - start_ns); }
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t lanes) : lanes_(lanes) {}

  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span on `lane` (its end is set by Close).
  SpanRef Open(std::size_t lane, const char* name, SpanRef parent,
               std::uint64_t id) {
    auto& spans = lanes_[lane];
    spans.push_back(Span{name, Now(), 0, parent, id});
    return SpanRef{static_cast<std::uint32_t>(lane),
                   static_cast<std::uint32_t>(spans.size() - 1)};
  }
  void Close(SpanRef ref) { lanes_[ref.lane][ref.index].end_ns = Now(); }

  const Span& at(SpanRef ref) const { return lanes_[ref.lane][ref.index]; }
  const std::vector<std::vector<Span>>& lanes() const { return lanes_; }

  /// Summed duration (ms) and count of every span called `name`.
  struct Total {
    double ms = 0;
    std::size_t count = 0;
  };
  Total Sum(const std::string& name) const;

  /// Summed self time (ms) of spans called `name`: each span's duration
  /// minus the durations of its direct children.
  double SelfMs(const std::string& name) const;

  /// Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span,
  /// one thread track per lane; args carry the id and the parent span.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<std::vector<Span>> lanes_;
};

}  // namespace latte::bench
