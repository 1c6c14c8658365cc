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
//                                 4: encoded events } — one per thread,
//                                 in thread-index order
//
// Events are encoded per thread, in order, each as
//
//   tag        u8      bit 0 type (0 read, 1 write); bits 1-3 size code
//                      (0-3: 1, 2, 4 or 8 bytes; 4: a size byte follows);
//                      bit 4 set exactly when think_cycles != 0; bits 5-7
//                      zero
//   size       u8      only for size code 4
//   delta      varint  zigzag of (addr - previous addr) mod 2^64, where the
//                      previous address of a thread's first event is 0
//   think      varint  think_cycles, only when tag bit 4 is set
//
// Varints are LEB128: seven bits per byte, low bits first, the high bit set
// on every byte but the last. A typical event takes 2-5 bytes.
//
// Readers accept only what save_traces writes, give or take unknown
// fields, so every stream that loads re-saves to its own bytes. They
// reject a frame that fails its CRC; a torn field sequence; a known field
// that repeats, has another kind, or is a u64 not 8 bytes wide; a missing
// header or thread field; thread frames out of index order; a header total
// that differs from the sum of the threads' counts; and, in the events, tag
// bits 5-7 or a size code above 4, a size byte of 1, 2, 4 or 8, a think
// flag with a think value of 0, a varint that is not minimal, a delta
// varint longer than 10 bytes or whose 10th byte is not 1, a think varint
// longer than 5 bytes or above 2^32-1, an event cut off by the end of the
// field, and bytes left after the frame's event count. Unknown payload
// fields are skipped, so newer writers can annotate traces.
//
// Compatibility: field id 3 held 16-byte event records { addr u64, think
// u32, type u8, size u8, pad u16 } in the first v2 writers. It is neither
// written nor read, so their streams fail to load (they have no events
// field), and their readers fail on these streams the same way. No reader
// for them is kept: a trace's absolute addresses resolve only against the
// heap of the session that recorded it, so traces are re-captured, not
// archived. The pre-frame v1 layout (raw "PRTR" preamble) is not read
// either.
//
// Thread frames are independent (a frame's address deltas restart at 0),
// so both directions process them on min(threads, CPUs) slots, counting
// the CPUs in the calling thread's sched_getaffinity mask. Each slot has
// one frame in flight, reuses its buffer for its frames and frees it with
// its last, so memory grows with the CPU count, not with the thread count.
// Saving: a slot sizes a thread's events exactly in a first pass, encodes
// them straight into its payload buffer and checksums the frame; the
// caller writes the frames in index order, so events are copied once and
// the bytes do not depend on the CPU count. A thread whose encoded events
// do not fit the frame's u32 length makes save_traces fail. Loading: the
// caller reads the frames in order, and the slots check each frame's CRC,
// parse its fields and decode its events. Every slot but the first runs on
// a thread of its own that lives for the call; the first runs on the
// caller, so with one CPU no thread starts. An exception thrown on a
// slot's thread (std::bad_alloc) is rethrown to the caller.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/executor.hpp"

namespace pred {

/// Writes traces to a stream/file in the v2 frame format. Returns false on
/// I/O failure, or when a thread's encoded events exceed a frame's 4 GiB
/// length limit.
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

/// Encodes one thread's events as a thread frame's events field holds them
/// (exposed for the codec tests).
std::string encode_events(const ThreadTrace& trace);
/// Decodes the `count` events of a thread frame's events field into `out`,
/// which is cleared first. Fails on any encoding encode_events would not
/// write (see above), including a count above bytes.size() / 2, which is
/// checked before `out` is sized.
bool decode_events(std::string_view bytes, std::uint64_t count,
                   ThreadTrace* out);

}  // namespace pred
