// accept(2) error policy of serve::NetServer and obs::IntrospectionServer.
#ifndef KGAG_COMMON_ACCEPT_BACKOFF_H_
#define KGAG_COMMON_ACCEPT_BACKOFF_H_

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>

namespace kgag {

/// For an accept(2) that failed for lack of descriptors or memory
/// (EMFILE, ENFILE, ENOBUFS, ENOMEM) the connection stays queued: waits a
/// fixed 50 ms, or until `stop` is set, and returns true so the caller
/// retries. Returns false at once for any other error.
inline bool BackOffAfterAcceptError(int err, const std::atomic<bool>& stop) {
  if (err != EMFILE && err != ENFILE && err != ENOBUFS && err != ENOMEM) {
    return false;
  }
  for (int i = 0; i < 10 && !stop.load(std::memory_order_acquire); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

}  // namespace kgag

#endif  // KGAG_COMMON_ACCEPT_BACKOFF_H_
