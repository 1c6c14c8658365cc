#include "predict/predictor.hpp"

#include <algorithm>

namespace pred {

namespace {

/// Cap on the virtual lines one whole-object adjustment adds (keeps
/// pathological objects bounded).
constexpr std::size_t kMaxObjectLines = 64;

}  // namespace

void Predictor::attach(Runtime& rt) {
  rt.set_prediction_hook(
      [this](Runtime& r, ShadowSpace& region, std::size_t line_index) {
        analyze_line(r, region, line_index);
      });
}

void Predictor::analyze_line(Runtime& rt, ShadowSpace& region,
                             std::size_t line_index) {
  const LineGeometry& geo = region.geometry();
  CacheTracker* tl = region.tracker(line_index);
  if (!tl) return;

  const auto words_l = tl->words_snapshot();
  const std::uint64_t avg =
      average_word_accesses(words_l, geo.words_per_line());
  if (avg == 0) return;

  const auto hot_l =
      hot_words(words_l, region.line_start(line_index), geo, avg);
  if (hot_l.empty()) return;

  const std::size_t neighbors[2] = {line_index - 1, line_index + 1};
  for (std::size_t adj : neighbors) {
    if (line_index == 0 && adj == line_index - 1) continue;
    if (adj >= region.num_lines()) continue;
    CacheTracker* ta = region.tracker(adj);
    if (!ta) continue;
    // Hotness of the adjacent line's words is judged against *L's* average,
    // per Section 3.3.
    const auto hot_a =
        hot_words(ta->words_snapshot(), region.line_start(adj), geo, avg);
    if (hot_a.empty()) continue;

    for (const HotPair& pair : find_hot_pairs(hot_l, hot_a)) {
      // Acceptance: projected invalidations must beat the per-word average
      // access count of L (Section 3.3).
      if (pair.estimated_invalidations <= avg) continue;

      const std::size_t line_x = pair.x.address / geo.line_size;
      const std::size_t line_y = pair.y.address / geo.line_size;
      const std::size_t lo_line = std::min(line_x, line_y);

      if (lo_line % 2 == 0 && line_x != line_y) {
        // Doubled hardware lines pair even/odd indices: only lines 2i and
        // 2i+1 can form a double-size virtual line.
        const Address start = lo_line * geo.line_size;
        nominate(rt, region, line_index, start, 2 * geo.line_size,
                 VirtualLineTracker::Kind::kDoubleLine, pair);
      }

      const Address d = pair.y.address - pair.x.address;
      if (d < geo.line_size) {
        // Figure 4: leave equal slack before X and after Y, i.e. the
        // virtual line [X - (sz-d)/2, Y + (sz-d)/2).
        const Address slack = (geo.line_size - d) / 2;
        Address start = pair.x.address >= slack ? pair.x.address - slack : 0;
        start -= start % geo.word_size;  // word-align the placement
        start = std::max(start, region.base());
        nominate(rt, region, line_index, start, geo.line_size,
                 VirtualLineTracker::Kind::kShifted, pair);
        adjust_object_lines(rt, region, line_index, start, pair);
      }
    }
  }
}

void Predictor::adjust_object_lines(Runtime& rt, ShadowSpace& region,
                                    std::size_t origin_line,
                                    Address shift_start, const HotPair& pair) {
  const LineGeometry& geo = region.geometry();
  const auto object = rt.objects().find(pair.x.address);
  if (!object) return;

  // The shift the chosen virtual line applies to the line grid.
  const Address delta = shift_start % geo.line_size;
  if (delta == 0) return;

  const std::size_t first = region.line_index(object->start);
  const std::size_t last = region.line_index(
      object->start + (object->size ? object->size : 1) - 1);
  std::size_t created = 0;
  for (std::size_t i = first;
       i <= last && i < region.num_lines() &&
       created < kMaxObjectLines;
       ++i) {
    if (region.tracker(i) == nullptr) continue;  // cold line: nothing to see
    const Address start = region.line_start(i) + delta;
    if (start == shift_start) continue;  // the pair's own line
    // One virtual line per (object line, delta); dedup handles re-entry.
    const std::uint64_t key =
        static_cast<std::uint64_t>(start) * 1000003ull + geo.line_size;
    {
      std::lock_guard<Spinlock> g(lock_);
      if (!nominated_.insert(key).second) continue;
    }
    rt.add_virtual_line(region, start, geo.line_size,
                        VirtualLineTracker::Kind::kShifted, origin_line,
                        pair.x.address, pair.y.address);
    candidates_.fetch_add(1, std::memory_order_relaxed);
    ++created;
  }
}

void Predictor::nominate(Runtime& rt, ShadowSpace& region,
                         std::size_t origin_line, Address start,
                         std::size_t size, VirtualLineTracker::Kind kind,
                         const HotPair& pair) {
  const std::uint64_t key =
      static_cast<std::uint64_t>(start) * 1000003ull + size;
  {
    std::lock_guard<Spinlock> g(lock_);
    if (!nominated_.insert(key).second) return;  // already tracking
  }
  rt.add_virtual_line(region, start, size, kind, origin_line, pair.x.address,
                      pair.y.address);
  candidates_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pred
