// Stripe token lifecycle (see detail::stripe_token in stripe_token.hpp):
// the out-of-line acquire and the thread-exit release, kept off the hot
// path.
#include "runtime/stripe_token.hpp"

#include <mutex>
#include <vector>

#include "common/check.hpp"

namespace pred::detail {

namespace {

struct TokenPool {
  std::mutex mu;
  std::vector<std::uint32_t> free;  ///< released tokens, reused LIFO
  std::uint32_t next = 0;           ///< tokens ever minted
};

/// Never destroyed: threads may exit (and release) during static
/// destruction.
TokenPool& token_pool() {
  static TokenPool* pool = new TokenPool;
  return *pool;
}

/// Set once the thread's token went back to the pool; an access after that
/// (from a later thread_local destructor) must not reuse it.
thread_local bool t_token_released = false;

/// Returns the thread's token to the pool at thread exit.
struct TokenLease {
  std::uint32_t token = kNoStripeToken;

  TokenLease() = default;
  TokenLease(const TokenLease&) = delete;
  TokenLease& operator=(const TokenLease&) = delete;
  ~TokenLease() {
    t_stripe_token = kNoStripeToken;
    t_token_released = true;
    TokenPool& pool = token_pool();
    std::lock_guard<std::mutex> g(pool.mu);
    pool.free.push_back(token);
  }
};

}  // namespace

std::uint32_t acquire_stripe_token() {
  TokenPool& pool = token_pool();
  std::uint32_t token = kNoStripeToken;
  {
    std::lock_guard<std::mutex> g(pool.mu);
    if (t_token_released || pool.free.empty()) {
      token = pool.next++;
    } else {
      token = pool.free.back();
      pool.free.pop_back();
    }
  }
  PRED_CHECK(token != kNoStripeToken);
  if (!t_token_released) {
    // Constructed on first use, so its destructor runs at thread exit.
    thread_local TokenLease lease;
    lease.token = token;
  }
  t_stripe_token = token;
  return token;
}

}  // namespace pred::detail
