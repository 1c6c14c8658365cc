#include "monitor/snapshot_merge.hpp"

#include <algorithm>
#include <cinttypes>
#include <unordered_map>

#include "common/format.hpp"

namespace pred {

namespace {

template <typename T>
int cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

int compare_line_entries(const MonitorSnapshot::LineEntry& a,
                         const MonitorSnapshot::LineEntry& b) {
  if (int c = cmp(a.line_start, b.line_start)) return c;
  if (int c = cmp(a.invalidations, b.invalidations)) return c;
  if (int c = cmp(a.samples, b.samples)) return c;
  if (int c = cmp(a.sample_writes, b.sample_writes)) return c;
  if (int c = cmp(a.predictions, b.predictions)) return c;
  if (int c = cmp(a.escalated, b.escalated)) return c;
  if (int c = cmp(a.attributed, b.attributed)) return c;
  if (int c = cmp(a.is_global, b.is_global)) return c;
  if (int c = cmp(a.object_start, b.object_start)) return c;
  if (int c = cmp(a.callsite, b.callsite)) return c;
  return cmp(a.label, b.label);
}

int compare_site_entries(const MonitorSnapshot::CallsiteEntry& a,
                         const MonitorSnapshot::CallsiteEntry& b) {
  if (int c = cmp(a.callsite, b.callsite)) return c;
  if (int c = cmp(a.label, b.label)) return c;
  if (int c = cmp(a.invalidations, b.invalidations)) return c;
  if (int c = cmp(a.samples, b.samples)) return c;
  return cmp(a.lines, b.lines);
}

template <typename T, typename Cmp>
int compare_vectors(const std::vector<T>& a, const std::vector<T>& b,
                    Cmp&& compare) {
  if (int c = cmp(a.size(), b.size())) return c;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (int c = compare(a[i], b[i])) return c;
  }
  return 0;
}

/// Deterministic total order over snapshots: sequence, then every scalar,
/// then the entry vectors lexicographically. Returns <0, 0, >0.
int compare_snapshots(const MonitorSnapshot& a, const MonitorSnapshot& b) {
  if (int c = cmp(a.sequence, b.sequence)) return c;
  if (int c = cmp(a.events_seen, b.events_seen)) return c;
  if (int c = cmp(a.escalations, b.escalations)) return c;
  if (int c = cmp(a.invalidations, b.invalidations)) return c;
  if (int c = cmp(a.samples, b.samples)) return c;
  if (int c = cmp(a.predictions, b.predictions)) return c;
  if (int c = cmp(a.virtual_lines, b.virtual_lines)) return c;
  if (int c = cmp(a.lines_tracked, b.lines_tracked)) return c;
  if (int c = compare_vectors(a.top_lines, b.top_lines, compare_line_entries)) {
    return c;
  }
  return compare_vectors(a.callsites, b.callsites, compare_site_entries);
}

/// Stable per-client key of a callsite rollup entry ("c:<id>" for interned
/// callsites, "g:<label>" for globals) — id spaces are per-process, so the
/// key is only ever compared within one client.
std::string site_key(const MonitorSnapshot::CallsiteEntry& ce) {
  if (ce.callsite != kNoCallsite) {
    return "c:" + std::to_string(ce.callsite);
  }
  return "g:" + ce.label;
}

int compare_recs(const ClientRec& a, const ClientRec& b) {
  if (int c = compare_snapshots(a.latest, b.latest)) return c;
  return cmp(a.pid, b.pid);
}
int compare_recs(const LineRec& a, const LineRec& b) {
  if (int c = cmp(a.sequence, b.sequence)) return c;
  return compare_line_entries(a.entry, b.entry);
}
int compare_recs(const SiteRec& a, const SiteRec& b) {
  if (int c = cmp(a.sequence, b.sequence)) return c;
  return compare_site_entries(a.entry, b.entry);
}

/// The join on one key: the record that sorts last under its total order
/// wins, so the result is independent of arrival order and repetition.
template <typename Map, typename Rec>
void join(Map& map, const typename Map::key_type& key, const Rec& rec) {
  auto [it, inserted] = map.try_emplace(key, rec);
  if (!inserted && compare_recs(rec, it->second) > 0) it->second = rec;
}

template <typename Map>
bool same_recs(const Map& a, const Map& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             compare_recs(x.second, y.second) == 0;
                    });
}

}  // namespace

void FleetState::absorb(std::uint64_t client_uid, std::uint64_t client_pid,
                        const MonitorSnapshot& snap) {
  join(clients_, client_uid, ClientRec{client_pid, snap});
  for (const auto& le : snap.top_lines) {
    join(lines_, {client_uid, le.line_start}, LineRec{snap.sequence, le});
  }
  for (const auto& ce : snap.callsites) {
    join(sites_, {client_uid, site_key(ce)}, SiteRec{snap.sequence, ce});
  }
}

void FleetState::merge(const FleetState& other) {
  for (const auto& [uid, rec] : other.clients_) join(clients_, uid, rec);
  for (const auto& [key, rec] : other.lines_) join(lines_, key, rec);
  for (const auto& [key, rec] : other.sites_) join(sites_, key, rec);
}

bool FleetState::operator==(const FleetState& other) const {
  return same_recs(clients_, other.clients_) &&
         same_recs(lines_, other.lines_) && same_recs(sites_, other.sites_);
}

FleetRollup FleetState::rollup(std::size_t top_k) const {
  FleetRollup out;
  out.clients = clients_.size();
  for (const auto& [uid, rec] : clients_) {
    (void)uid;
    out.events_seen += rec.latest.events_seen;
    out.escalations += rec.latest.escalations;
    out.invalidations += rec.latest.invalidations;
    out.samples += rec.latest.samples;
    out.predictions += rec.latest.predictions;
    out.virtual_lines += rec.latest.virtual_lines;
    out.lines_tracked += rec.latest.lines_tracked;
  }

  out.top_lines.reserve(lines_.size());
  for (const auto& [key, rec] : lines_) {
    FleetRollup::Line l;
    l.client_uid = key.first;
    const auto cit = clients_.find(key.first);
    l.client_pid = cit != clients_.end() ? cit->second.pid : 0;
    l.line_start = rec.entry.line_start;
    l.invalidations = rec.entry.invalidations;
    l.samples = rec.entry.samples;
    l.sample_writes = rec.entry.sample_writes;
    l.predictions = rec.entry.predictions;
    l.escalated = rec.entry.escalated;
    l.attributed = rec.entry.attributed;
    l.is_global = rec.entry.is_global;
    l.label = rec.entry.label;
    out.top_lines.push_back(std::move(l));
  }
  std::sort(out.top_lines.begin(), out.top_lines.end(),
            [](const FleetRollup::Line& a, const FleetRollup::Line& b) {
              if (a.invalidations != b.invalidations) {
                return a.invalidations > b.invalidations;
              }
              if (a.samples != b.samples) return a.samples > b.samples;
              if (a.client_uid != b.client_uid) {
                return a.client_uid < b.client_uid;
              }
              return a.line_start < b.line_start;
            });
  if (out.top_lines.size() > top_k) out.top_lines.resize(top_k);

  // Sites group by symbolic label across clients — the only identity that
  // survives process boundaries. Unlabeled entries pool under "(unnamed)".
  std::unordered_map<std::string, FleetRollup::Site> by_label;
  std::unordered_map<std::string, std::uint64_t> last_client;
  for (const auto& [key, rec] : sites_) {
    const std::string label =
        rec.entry.label.empty() ? "(unnamed)" : rec.entry.label;
    FleetRollup::Site& site = by_label[label];
    site.label = label;
    site.invalidations += rec.entry.invalidations;
    site.samples += rec.entry.samples;
    site.lines += rec.entry.lines;
    auto [lc, first_time] = last_client.try_emplace(label, key.first);
    if (first_time || lc->second != key.first) {
      site.clients += 1;
      lc->second = key.first;
    }
  }
  out.sites.reserve(by_label.size());
  for (auto& [label, site] : by_label) out.sites.push_back(std::move(site));
  std::sort(out.sites.begin(), out.sites.end(),
            [](const FleetRollup::Site& a, const FleetRollup::Site& b) {
              if (a.invalidations != b.invalidations) {
                return a.invalidations > b.invalidations;
              }
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.label < b.label;
            });
  return out;
}

std::string format_rollup(const FleetRollup& r) {
  std::string out;
  append_fmt(out,
             "=== fleet rollup: %" PRIu64 " client(s) ===\n"
             "events: %" PRIu64 " aggregated\n"
             "totals: %" PRIu64 " escalated lines, %" PRIu64
             " invalidations, %" PRIu64 " samples, %" PRIu64
             " predictions, %" PRIu64 " virtual lines, %" PRIu64
             " lines tracked\n",
             r.clients, r.events_seen, r.escalations, r.invalidations,
             r.samples, r.predictions, r.virtual_lines, r.lines_tracked);
  if (!r.top_lines.empty()) {
    append_fmt(out, "top %zu lines:\n", r.top_lines.size());
    for (const auto& l : r.top_lines) {
      append_fmt(out,
                 "  pid %-7" PRIu64 " 0x%012" PRIxPTR "  inv %-6" PRIu64
                 " samples %-8" PRIu64 "%s",
                 l.client_pid, l.line_start, l.invalidations, l.samples,
                 l.escalated ? " [tracked]" : "");
      if (l.attributed) {
        append_fmt(out, " %s %s", l.is_global ? "global" : "heap",
                   l.label.c_str());
      }
      out += '\n';
    }
  }
  if (!r.sites.empty()) {
    out += "hot callsites (fleet-wide):\n";
    for (const auto& s : r.sites) {
      append_fmt(out,
                 "  %-40s inv %-6" PRIu64 " samples %-8" PRIu64
                 " (%" PRIu64 " line(s), %" PRIu64 " client(s))\n",
                 s.label.c_str(), s.invalidations, s.samples, s.lines,
                 s.clients);
    }
  }
  return out;
}

}  // namespace pred
