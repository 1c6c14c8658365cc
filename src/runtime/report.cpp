#include "runtime/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <map>

#include "common/format.hpp"

namespace pred {

const char* to_string(SharingKind kind) {
  switch (kind) {
    case SharingKind::kNone: return "NONE";
    case SharingKind::kFalseSharing: return "FALSE SHARING";
    case SharingKind::kTrueSharing: return "TRUE SHARING";
    case SharingKind::kMixed: return "MIXED SHARING";
  }
  return "?";
}

SharingKind classify_words(const std::vector<WordReport>& words) {
  // True sharing: a word written by more than one thread (a shared word with
  // writes). False sharing: a word *owned and written* by one thread while a
  // different thread touches another word of the same line. Requiring the
  // writer word to be owned (not shared) keeps a pure contended counter plus
  // incidental private words classified as true sharing, which is how the
  // paper avoids false positives on true-sharing lines.
  bool true_sharing = false;
  bool false_sharing = false;
  for (const WordReport& a : words) {
    if (a.writes == 0) continue;
    if (a.shared) {
      true_sharing = true;
      continue;
    }
    for (const WordReport& b : words) {
      if (&a == &b) continue;
      if (b.reads + b.writes == 0) continue;
      if (b.shared || b.owner != a.owner) {
        false_sharing = true;
        break;
      }
    }
  }
  if (true_sharing && false_sharing) return SharingKind::kMixed;
  if (false_sharing) return SharingKind::kFalseSharing;
  if (true_sharing) return SharingKind::kTrueSharing;
  return SharingKind::kNone;
}

namespace {

/// Attribution key: the object's start address, or the line start for lines
/// we cannot map to a registered object.
struct Accumulator {
  std::map<Address, ObjectFinding> by_object;

  ObjectFinding& finding_for(const Runtime& rt, Address hot_addr,
                             Address fallback_start, std::size_t fallback_size) {
    auto obj = rt.objects().find(hot_addr);
    Address key = obj ? obj->start : fallback_start;
    auto [it, inserted] = by_object.try_emplace(key);
    if (inserted) {
      if (obj) {
        it->second.object = *obj;
        it->second.attributed = true;
      } else {
        it->second.object.start = fallback_start;
        it->second.object.size = fallback_size;
        it->second.attributed = false;
      }
    }
    return it->second;
  }
};

/// The hottest touched word's address, used to attribute a line that may
/// contain several objects to the object users most care about.
Address hottest_word(const LineFinding& lf) {
  Address best = lf.line_start;
  std::uint64_t best_count = 0;
  for (const WordReport& w : lf.words) {
    if (w.reads + w.writes > best_count) {
      best_count = w.reads + w.writes;
      best = w.address;
    }
  }
  return best;
}

}  // namespace

Report build_report(const Runtime& rt) {
  // Publish the calling thread's staged write counters so `writes_count`
  // below reflects every write this thread issued. Worker threads drain on
  // unbind/exit, so a report built after join sees all counts.
  flush_staged_writes();
  const RuntimeConfig& cfg = rt.config();
  const LineGeometry& geo = cfg.geometry;
  Report report;
  report.regions_dropped = rt.regions_dropped();
  report.wide_tid_accesses = rt.wide_tid_accesses();
  Accumulator acc;

  rt.for_each_region([&](const ShadowSpace& region) {
    region.for_each_tracker([&](std::size_t idx, CacheTracker* t) {
      const CacheTracker::Counts counts = t->counts();
      report.total_invalidations += counts.invalidations;
      if (counts.invalidations < cfg.report_invalidation_threshold) return;

      LineFinding lf;
      lf.line_index = idx;
      lf.line_start = region.line_start(idx);
      lf.invalidations = counts.invalidations;
      lf.sampled_accesses = counts.sampled_accesses();
      lf.sampled_writes = counts.sampled_writes;
      lf.total_accesses = counts.total_accesses;
      lf.total_writes = region.writes_count(idx);
      const auto words = t->words_snapshot();
      for (std::size_t w = 0; w < words.size(); ++w) {
        if (!words[w].touched()) continue;
        WordReport wr;
        wr.address = lf.line_start + w * geo.word_size;
        wr.line_index = geo.line_index(wr.address);
        wr.reads = words[w].reads;
        wr.writes = words[w].writes;
        wr.owner = words[w].owner;
        wr.shared = words[w].shared();
        lf.words.push_back(wr);
      }
      lf.kind = classify_words(lf.words);

      ObjectFinding& of = acc.finding_for(rt, hottest_word(lf), lf.line_start,
                                          geo.line_size);
      of.observed = true;
      of.invalidations += lf.invalidations;
      of.sampled_accesses += lf.sampled_accesses;
      of.sampled_writes += lf.sampled_writes;
      of.total_accesses += lf.total_accesses;
      of.total_writes += lf.total_writes;
      of.lines.push_back(std::move(lf));
    });
  });

  rt.for_each_virtual_line([&](const VirtualLineTracker& vl) {
    const std::uint64_t inv = vl.invalidations();
    if (inv < cfg.report_invalidation_threshold) return;
    PredictedFinding pf;
    pf.start = vl.start();
    pf.size = vl.size();
    pf.kind = vl.kind();
    pf.invalidations = inv;
    pf.hot_x = vl.hot_x();
    pf.hot_y = vl.hot_y();

    ObjectFinding& of =
        acc.finding_for(rt, pf.hot_x, vl.start(), vl.size());
    of.predicted = true;
    of.predicted_invalidations += inv;
    of.predictions.push_back(pf);
  });

  // Prediction-only findings have no hot physical line, but Figure 5 still
  // shows the object's access totals and word histogram: pull them from the
  // (escalated, invalidation-free) trackers covering the object.
  for (auto& [key, of] : acc.by_object) {
    if (of.observed || !of.predicted || !of.attributed) continue;
    const ShadowSpace* region = rt.find_region(of.object.start);
    if (!region) continue;
    const std::size_t first = region->line_index(of.object.start);
    const std::size_t last = region->line_index(
        of.object.start + (of.object.size ? of.object.size : 1) - 1);
    LineFinding words_only;
    for (std::size_t i = first; i <= last && i < region->num_lines(); ++i) {
      CacheTracker* t = region->tracker(i);
      if (!t) continue;
      const CacheTracker::Counts counts = t->counts();
      of.total_accesses += counts.total_accesses;
      of.total_writes += region->writes_count(i);
      of.sampled_accesses += counts.sampled_accesses();
      of.sampled_writes += counts.sampled_writes;
      const Address line_start = region->line_start(i);
      const auto words = t->words_snapshot();
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        if (!words[wi].touched()) continue;
        WordReport wr;
        wr.address = line_start + wi * geo.word_size;
        wr.line_index = geo.line_index(wr.address);
        wr.reads = words[wi].reads;
        wr.writes = words[wi].writes;
        wr.owner = words[wi].owner;
        wr.shared = words[wi].shared();
        words_only.words.push_back(wr);
      }
    }
    if (!words_only.words.empty()) {
      words_only.line_index = first;
      words_only.line_start = region->line_start(first);
      words_only.kind = SharingKind::kNone;  // no observed invalidations
      of.lines.push_back(std::move(words_only));
    }
  }

  for (auto& [key, of] : acc.by_object) {
    // The object's classification combines all of its hot lines.
    bool fs = false;
    bool ts = false;
    for (const LineFinding& lf : of.lines) {
      fs |= lf.kind == SharingKind::kFalseSharing ||
            lf.kind == SharingKind::kMixed;
      ts |= lf.kind == SharingKind::kTrueSharing ||
            lf.kind == SharingKind::kMixed;
    }
    // A verified virtual line is false sharing by construction: its hot pair
    // consists of different words from different threads (Section 3.3).
    fs |= !of.predictions.empty();
    of.kind = fs && ts   ? SharingKind::kMixed
              : fs       ? SharingKind::kFalseSharing
              : ts       ? SharingKind::kTrueSharing
                         : SharingKind::kNone;
    std::sort(of.predictions.begin(), of.predictions.end(),
              [](const PredictedFinding& a, const PredictedFinding& b) {
                return a.invalidations > b.invalidations;
              });
    report.findings.push_back(std::move(of));
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const ObjectFinding& a, const ObjectFinding& b) {
              if (a.impact() != b.impact()) return a.impact() > b.impact();
              return a.object.start < b.object.start;
            });
  return report;
}

namespace {

const char* vl_kind_name(VirtualLineTracker::Kind k) {
  return k == VirtualLineTracker::Kind::kDoubleLine ? "double line size"
                                                    : "shifted placement";
}

}  // namespace

std::string format_finding(const ObjectFinding& f,
                           const CallsiteTable& callsites) {
  std::string out;
  const char* what = f.object.is_global ? "GLOBAL VARIABLE" : "HEAP OBJECT";
  const char* status = f.observed ? (f.predicted ? "OBSERVED+PREDICTED"
                                                 : "OBSERVED")
                                  : "PREDICTED";
  append_fmt(out, "%s %s: start 0x%" PRIxPTR
             " end 0x%" PRIxPTR " (with size %zu). [%s]\n",
             to_string(f.kind), what, f.object.start,
             f.object.start + f.object.size, f.object.size, status);
  append_fmt(out,
             "Number of accesses: %" PRIu64 "; Number of invalidations: %" PRIu64
             "; Number of writes: %" PRIu64 ".\n",
             f.total_accesses, f.invalidations, f.total_writes);
  if (f.predicted) {
    append_fmt(out, "Predicted invalidations (virtual lines): %" PRIu64 ".\n",
               f.predicted_invalidations);
  }
  if (f.object.is_global && !f.object.name.empty()) {
    append_fmt(out, "Global name: %s\n", f.object.name.c_str());
  }
  if (!f.object.is_global && f.object.callsite != kNoCallsite) {
    out += "Callsite stack:\n";
    out += format_callsite(callsites.get(f.object.callsite), "");
  }
  if (!f.lines.empty()) {
    out += "Word level information:\n";
    for (const LineFinding& lf : f.lines) {
      for (const WordReport& w : lf.words) {
        if (w.shared) {
          append_fmt(out,
                     "Address 0x%" PRIxPTR " (line %zu): reads %" PRIu64
                     " writes %" PRIu64 " [shared by multiple threads]\n",
                     w.address, w.line_index, w.reads, w.writes);
        } else {
          append_fmt(out,
                     "Address 0x%" PRIxPTR " (line %zu): reads %" PRIu64
                     " writes %" PRIu64 " by thread %u\n",
                     w.address, w.line_index, w.reads, w.writes, w.owner);
        }
      }
    }
  }
  // Virtual lines are ranked by predicted invalidations; show the leaders.
  constexpr std::size_t kMaxShownPredictions = 6;
  const std::size_t shown =
      std::min(f.predictions.size(), kMaxShownPredictions);
  for (std::size_t i = 0; i < shown; ++i) {
    const PredictedFinding& p = f.predictions[i];
    append_fmt(out,
               "Predicted virtual line [0x%" PRIxPTR ", 0x%" PRIxPTR
               ") (%s): invalidations %" PRIu64 ", hot pair 0x%" PRIxPTR
               " / 0x%" PRIxPTR "\n",
               p.start, p.start + p.size, vl_kind_name(p.kind),
               p.invalidations, p.hot_x, p.hot_y);
  }
  if (f.predictions.size() > shown) {
    append_fmt(out, "... and %zu more verified virtual lines\n",
               f.predictions.size() - shown);
  }
  return out;
}

std::string format_report(const Report& report,
                          const CallsiteTable& callsites) {
  std::string out;
  if (report.regions_dropped != 0) {
    append_fmt(out,
               "Regions dropped: %" PRIu64
               " (region table full; their accesses were ignored)\n",
               report.regions_dropped);
  }
  if (report.wide_tid_accesses != 0) {
    append_fmt(out,
               "Wide thread ids: %" PRIu64
               " tracked accesses ignored (thread id above 2^30-1)\n",
               report.wide_tid_accesses);
  }
  if (report.findings.empty()) {
    return out + "No false sharing problems detected.\n";
  }
  int rank = 1;
  for (const ObjectFinding& f : report.findings) {
    append_fmt(out, "--- Finding #%d ---\n", rank++);
    out += format_finding(f, callsites);
    out += '\n';
  }
  return out;
}

}  // namespace pred
