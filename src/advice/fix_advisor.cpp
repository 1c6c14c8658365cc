#include "advice/fix_advisor.hpp"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <set>

#include "common/format.hpp"

namespace pred {

const char* to_string(FixKind kind) {
  switch (kind) {
    case FixKind::kPadPerThreadSlots: return "pad per-thread slots";
    case FixKind::kAlignObject: return "pin object alignment";
    case FixKind::kWidenElements: return "widen array elements";
    case FixKind::kSeparateHotFields: return "separate hot fields";
    case FixKind::kReduceWriteSharing: return "reduce write sharing";
  }
  return "?";
}

namespace {

/// A maximal run of consecutive touched words owned by one thread.
struct OwnerSegment {
  ThreadId owner = kInvalidThread;
  Address start = 0;
  Address end = 0;  // exclusive
};

/// Collects every touched word of a finding, address-sorted.
std::vector<WordReport> all_words(const ObjectFinding& f) {
  std::vector<WordReport> words;
  for (const LineFinding& lf : f.lines) {
    words.insert(words.end(), lf.words.begin(), lf.words.end());
  }
  std::sort(words.begin(), words.end(),
            [](const WordReport& a, const WordReport& b) {
              return a.address < b.address;
            });
  return words;
}

std::vector<OwnerSegment> owner_segments(const std::vector<WordReport>& words,
                                         std::size_t word_size) {
  std::vector<OwnerSegment> segments;
  for (const WordReport& w : words) {
    if (w.shared || w.owner == kInvalidThread) continue;
    if (!segments.empty() && segments.back().owner == w.owner &&
        segments.back().end == w.address) {
      segments.back().end = w.address + word_size;
    } else {
      segments.push_back({w.owner, w.address, w.address + word_size});
    }
  }
  return segments;
}

/// Median gap between starts of consecutive different-owner segments —
/// the inferred per-thread slot stride.
std::size_t infer_stride(const std::vector<OwnerSegment>& segments) {
  std::vector<std::size_t> gaps;
  for (std::size_t i = 1; i < segments.size(); ++i) {
    if (segments[i].owner != segments[i - 1].owner) {
      gaps.push_back(segments[i].start - segments[i - 1].start);
    }
  }
  if (gaps.empty()) return 0;
  std::sort(gaps.begin(), gaps.end());
  return gaps[gaps.size() / 2];
}

std::uint32_t distinct_owners(const std::vector<OwnerSegment>& segments) {
  std::set<ThreadId> owners;
  for (const auto& s : segments) owners.insert(s.owner);
  return static_cast<std::uint32_t>(owners.size());
}

FixSuggestion advise_one(const ObjectFinding& f,
                         const AdvisorOptions& options) {
  FixSuggestion fix;
  fix.object = f.object;
  fix.eliminated_invalidations = f.impact();

  const auto words = all_words(f);
  const std::size_t word_size = words.size() >= 2
                                    ? static_cast<std::size_t>(
                                          words[1].address - words[0].address)
                                    : 8;
  const auto segments =
      owner_segments(words, std::min<std::size_t>(word_size, 8));
  fix.threads_involved = distinct_owners(segments);
  const std::size_t stride = infer_stride(segments);
  fix.slot_stride = stride;

  if (f.kind == SharingKind::kTrueSharing) {
    fix.kind = FixKind::kReduceWriteSharing;
    fix.prescription =
        "this is true sharing (one word written by several threads): no "
        "layout change helps — give each thread its own copy of the "
        "counter or batch updates locally";
    fix.rationale = "a shared hot word carries the invalidations";
    return fix;
  }

  if (!f.observed && f.predicted) {
    fix.kind = FixKind::kAlignObject;
    append_fmt(fix.prescription,
               "the current placement is safe only by accident: allocate "
               "with alignas(%zu) (or aligned_alloc) and pad the per-thread "
               "stride to a multiple of %zu bytes so no placement or larger "
               "cache line can recombine the hot words",
               options.line_size, options.line_size);
    fix.rationale =
        "false sharing was *predicted* from hot words of different threads "
        "on adjacent lines; only the object's starting address prevents it "
        "today";
    return fix;
  }

  // Packed-slot pattern only applies when the object is small enough that
  // the slots genuinely tile it; a large array whose *hot* words cluster at
  // chunk boundaries merely looks slot-shaped in the hot lines.
  const bool slots_tile_object =
      f.object.size <=
      static_cast<std::size_t>(fix.threads_involved) * options.line_size * 2;

  if (stride != 0 && stride < options.line_size &&
      fix.threads_involved >= 2 && slots_tile_object) {
    fix.kind = FixKind::kPadPerThreadSlots;
    append_fmt(fix.prescription,
               "each thread's %zu-byte slot shares a %zu-byte line with its "
               "neighbors: pad every slot to %zu bytes (alignas(%zu) or an "
               "explicit char[%zu] tail)",
               stride, options.line_size, options.line_size,
               options.line_size, options.line_size - stride);
    append_fmt(fix.rationale,
               "%u threads own interleaved word runs with a ~%zu-byte "
               "stride inside shared lines",
               fix.threads_involved, stride);
    return fix;
  }

  if ((stride >= options.line_size || !slots_tile_object) &&
      fix.threads_involved >= 2) {
    const std::size_t chunk =
        stride >= options.line_size
            ? stride
            : f.object.size / std::max<std::uint32_t>(fix.threads_involved, 1);
    fix.kind = FixKind::kWidenElements;
    fix.slot_stride = chunk;
    append_fmt(fix.prescription,
               "threads own large contiguous chunks (~%zu bytes) that meet "
               "inside boundary lines: widen the element type or round each "
               "chunk to a multiple of %zu bytes",
               chunk, options.line_size);
    fix.rationale =
        "only the lines where two threads' chunks abut show mixed "
        "ownership";
    return fix;
  }

  fix.kind = FixKind::kSeparateHotFields;
  append_fmt(fix.prescription,
             "fields written by different threads share lines without a "
             "regular stride: group fields by owning thread and insert "
             "alignas(%zu) between the groups",
             options.line_size);
  fix.rationale = "irregular multi-owner word mix inside the hot lines";
  return fix;
}

}  // namespace

std::vector<FixSuggestion> advise(const Report& report,
                                  const AdvisorOptions& options) {
  std::vector<FixSuggestion> out;
  for (const ObjectFinding& f : report.findings) {
    if (f.impact() < options.min_invalidations) continue;
    if (f.kind == SharingKind::kNone && !f.predicted) continue;
    out.push_back(advise_one(f, options));
  }
  std::sort(out.begin(), out.end(),
            [](const FixSuggestion& a, const FixSuggestion& b) {
              return a.eliminated_invalidations > b.eliminated_invalidations;
            });
  return out;
}

std::string format_suggestions(
    const std::vector<FixSuggestion>& suggestions) {
  if (suggestions.empty()) return "No fixes to suggest.\n";
  std::string out;
  int rank = 1;
  for (const FixSuggestion& s : suggestions) {
    append_fmt(out, "Fix #%d [%s] — eliminates ~%" PRIu64 " invalidations\n",
               rank++, to_string(s.kind), s.eliminated_invalidations);
    if (s.object.is_global && !s.object.name.empty()) {
      append_fmt(out, "  object: global '%s' (%zu bytes)\n",
                 s.object.name.c_str(), s.object.size);
    } else {
      append_fmt(out, "  object: heap, start 0x%" PRIxPTR " (%zu bytes)\n",
                 s.object.start, s.object.size);
    }
    append_fmt(out, "  evidence: %s\n", s.rationale.c_str());
    append_fmt(out, "  fix: %s\n\n", s.prescription.c_str());
  }
  return out;
}

}  // namespace pred
