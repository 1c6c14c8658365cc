#include "api/predator.hpp"

#include <atomic>

#include <unistd.h>

#include "trace/snapshot_codec.hpp"

namespace pred {

namespace {

std::uint64_t next_session_uid() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  // Distinct across forked clients (pid) and across sessions within one
  // process (counter). Fits operator expectations: the high half reads as
  // the pid in hex.
  return (static_cast<std::uint64_t>(::getpid()) << 32) | (n & 0xffffffffu);
}

}  // namespace

Session::Session(SessionOptions options) : options_(options) {
  uid_ = options_.session_uid != 0 ? options_.session_uid
                                   : next_session_uid();
  runtime_ = std::make_unique<Runtime>(options_.runtime);
  predictor_ = std::make_unique<Predictor>(options_.predictor);
  predictor_->attach(*runtime_);
  allocator_ =
      std::make_unique<PredatorAllocator>(*runtime_, options_.heap_size);
  // Constructed idle: no rings, no thread, no emission until start().
  monitor_ = std::make_unique<Monitor>(*runtime_, options_.monitor);
}

Session::~Session() {
  // Drop this thread's staged counters referencing the dying runtime before
  // the destructor bumps the generation; other threads' stale slots are
  // discarded lazily via the generation check.
  flush_staged_writes();
}

void* Session::alloc(std::size_t size, CallsiteId callsite) {
  return allocator_->allocate(size, callsite);
}

void Session::free(void* p) { allocator_->deallocate(p); }

std::string Session::publish() {
  return SnapshotCodec::encode(monitor_->snapshot(),
                               ClientId{uid_, static_cast<std::uint64_t>(
                                                  ::getpid())});
}

std::string Session::hello_frame() const {
  return SnapshotCodec::encode_hello(
      ClientId{uid_, static_cast<std::uint64_t>(::getpid())});
}

std::string Session::goodbye_frame() const {
  return SnapshotCodec::encode_goodbye(
      ClientId{uid_, static_cast<std::uint64_t>(::getpid())});
}

void Session::register_global(void* addr, std::size_t size,
                              std::string name) {
  const Address a = reinterpret_cast<Address>(addr);
  // Regions are whole lines, so a neighbour registered earlier may already
  // cover the global's first bytes: skip what is covered and register the
  // rest.
  const Address end = a + size;
  for (Address next = a; next < end;) {
    const ShadowSpace* r = runtime_->find_region(next);
    if (r == nullptr) {
      runtime_->register_region(next, end - next);
      break;
    }
    next = r->end();
  }
  ObjectInfo info;
  info.start = a;
  info.size = size;
  info.name = std::move(name);
  info.is_global = true;
  runtime_->objects().add(std::move(info));
}

namespace {
struct TlsBinding {
  Session* session = nullptr;
  ThreadId tid = kInvalidThread;
};
thread_local TlsBinding tls_binding;
}  // namespace

void ThreadContext::bind(Session* session, ThreadId tid) {
  tls_binding.session = session;
  tls_binding.tid = tid;
}
void ThreadContext::unbind() {
  // Publish whatever this thread staged before it disappears from the
  // session's point of view — the thread may terminate right after.
  flush_staged_writes();
  tls_binding = TlsBinding{};
}
Session* ThreadContext::session() { return tls_binding.session; }
ThreadId ThreadContext::tid() { return tls_binding.tid; }

}  // namespace pred
