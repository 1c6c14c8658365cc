// Trace persistence: serialize per-thread access traces to a compact binary
// file and load them back. This enables the record-once / analyze-many
// workflow: capture an execution a single time, then re-run detection under
// different thresholds, sampling rates, line sizes, or predictor settings
// without re-executing the program — the offline analogue of the paper's
// runtime pipeline (and the representation its prediction machinery really
// consumes).
//
// Format v2: a stream of wire_format frames (shared with the snapshot and
// collector wire — magic "PRFR", version, type, length, CRC32 per frame;
// see trace/wire_format.hpp):
//
//   kTraceHeader frame   fields { 1: thread count, 2: total events }
//   kThreadTrace frame   fields { 1: thread index, 2: event count,
//                                 3: packed events } — one per thread,
//                                 in thread-index order
//
// Packed events are 16-byte records: { addr u64, think u32, type u8,
// size u8, pad u16 }, little-endian. Unknown payload fields are skipped,
// so newer writers can annotate traces without breaking this reader. The
// pre-frame v1 layout (raw "PRTR" preamble) is no longer read.
//
// Readers accept only what save_traces writes, give or take unknown
// fields. They reject a frame that fails its CRC; a torn field sequence;
// a known field that repeats, has another kind, or is a u64 not 8 bytes
// wide; a missing header or thread field; thread frames out of index
// order; a packed event whose type is not 0 (read) or 1 (write) or whose
// pad is not zero; an event count that disagrees with the packed events;
// and a header total that differs from the sum of the threads' counts.
//
// Saving packs each thread's events straight into one reused payload
// buffer and writes it after its frame header, so events are copied once;
// a thread too large for the frame's u32 length makes save_traces fail.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/executor.hpp"

namespace pred {

/// Writes traces to a stream/file in the v2 frame format. Returns false on
/// I/O failure, or when a thread's packed events exceed a frame's 4 GiB
/// length limit (about 2^28 events).
bool save_traces(std::ostream& out, const std::vector<ThreadTrace>& traces);
bool save_traces_file(const std::string& path,
                      const std::vector<ThreadTrace>& traces);

/// Reads a v2 frame stream back. Returns false on I/O failure, bad magic,
/// version skew, frame corruption, truncation, or any stream save_traces
/// would not write (see above); `traces` is cleared first and left empty
/// on failure.
/// Memory grows only with the bytes actually read, never with a count a
/// header merely claims.
bool load_traces(std::istream& in, std::vector<ThreadTrace>* traces);
bool load_traces_file(const std::string& path,
                      std::vector<ThreadTrace>* traces);

/// Total event count across threads (reporting convenience).
std::size_t total_events(const std::vector<ThreadTrace>& traces);

/// Packs/unpacks one thread's events as the 16-byte wire records (exposed
/// for the codec tests). unpack_events rejects a length that is not a
/// whole number of records and a record with a bad type or non-zero pad.
std::string pack_events(const ThreadTrace& trace);
bool unpack_events(std::string_view bytes, ThreadTrace* out);

}  // namespace pred
