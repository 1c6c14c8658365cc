// Stripe tokens: small dense per-OS-thread indices for owner-exclusive
// metadata. A tracker's sampling stripes (runtime/cache_tracker.hpp) and the
// virtual lines' invalidation count tables (runtime/virtual_line.hpp) are
// indexed by the calling thread's token, so each is written by one thread
// at a time with a plain load and store.
#pragma once

#include <cstdint>

namespace pred::detail {

inline constexpr std::uint32_t kNoStripeToken = 0xffffffffu;
/// The calling OS thread's stripe token, kNoStripeToken until its first
/// tracked access. Constant-initialized, so the hot path is a TLS load +
/// compare with no thread_local initialization guard.
inline thread_local std::uint32_t t_stripe_token = kNoStripeToken;

/// Gives the calling thread a token and stores it in t_stripe_token. The
/// thread takes the most recently released token from a process-wide free
/// list, or a new one when the list is empty, and returns it to the list
/// when it exits; ownership passes through the list's mutex, so the next
/// holder sees every update the last one made to the token's stripes and
/// count tables. A thread whose token was already returned (an access from
/// a thread_local destructor that runs after the release) gets a new token
/// that is never returned.
std::uint32_t acquire_stripe_token();

/// Small dense token identifying the calling OS thread. Token values are
/// bounded by the peak number of threads alive at once, not by
/// threads-ever, and so is every table indexed by them. A token's entries
/// have one writer at a time: the thread holding it. A thread keeps its
/// token for life, so a deterministic single-OS-thread replay uses one
/// stripe and samples exactly like one `n % interval < window` counter per
/// line.
inline std::uint32_t stripe_token() {
  const std::uint32_t token = t_stripe_token;
  if (token == kNoStripeToken) [[unlikely]] return acquire_stripe_token();
  return token;
}

}  // namespace pred::detail
