#include "common/fs_ops.h"

#ifdef __unix__

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

namespace mmr::fsio {
namespace {

int real_open(const char* path, int flags, unsigned mode) {
  return ::open(path, flags, static_cast<mode_t>(mode));
}

long real_write(int fd, const void* data, std::size_t n) {
  return static_cast<long>(::write(fd, data, n));
}

int real_fsync(int fd) { return ::fsync(fd); }

int real_close(int fd) { return ::close(fd); }

int real_rename(const char* from, const char* to) {
  return ::rename(from, to);
}

int real_unlink(const char* path) { return ::unlink(path); }

void real_sleep(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

const OpsTable kRealOps = {
    &real_open, &real_write, &real_fsync,  &real_close,
    &real_rename, &real_unlink, &real_sleep,
};

// Published like dsp::backend's dispatch table: relaxed atomic pointer,
// swapped only by tests before/after the code under test runs.
std::atomic<const OpsTable*> g_ops{&kRealOps};

/// One retry step: sleeps the current backoff and doubles it. Returns
/// false when the attempt budget is exhausted (caller throws).
bool backoff_step(int& attempts_left, double& backoff_s) {
  if (--attempts_left <= 0) return false;
  ops().sleep_fn(backoff_s);
  backoff_s *= 2.0;
  return true;
}

}  // namespace

const OpsTable* real_ops() { return &kRealOps; }

const OpsTable& ops() {
  return *g_ops.load(std::memory_order_relaxed);
}

const OpsTable* set_ops(const OpsTable* table) {
  const OpsTable* next = table != nullptr ? table : &kRealOps;
  return g_ops.exchange(next, std::memory_order_relaxed);
}

bool transient_errno(int err) {
  return err == EINTR || err == EAGAIN || err == EBUSY
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
         || err == EWOULDBLOCK
#endif
      ;
}

int open_retry(const std::string& path, int flags, unsigned mode,
               const RetryPolicy& policy) {
  int attempts_left = policy.max_attempts;
  double backoff_s = policy.initial_backoff_s;
  for (;;) {
    const int fd = ops().open_fn(path.c_str(), flags, mode);
    if (fd >= 0) return fd;
    if (!transient_errno(errno) || !backoff_step(attempts_left, backoff_s)) {
      throw IoError("open", path, errno);
    }
  }
}

void write_all(int fd, const void* data, std::size_t n,
               const std::string& path, const RetryPolicy& policy) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t written = 0;
  int attempts_left = policy.max_attempts;
  double backoff_s = policy.initial_backoff_s;
  while (written < n) {
    const long w = ops().write_fn(fd, bytes + written, n - written);
    if (w > 0) {
      written += static_cast<std::size_t>(w);
      // Progress resets the budget: only consecutive failures count.
      attempts_left = policy.max_attempts;
      backoff_s = policy.initial_backoff_s;
      continue;
    }
    // w == 0 (a short write that made no progress) is retried like a
    // transient failure -- regular files never legitimately return 0
    // for a non-empty buffer.
    const int err = w == 0 ? EAGAIN : errno;
    if (!transient_errno(err) || !backoff_step(attempts_left, backoff_s)) {
      throw IoError("write", path, err);
    }
  }
}

void fsync_retry(int fd, const std::string& path, const RetryPolicy& policy) {
  int attempts_left = policy.max_attempts;
  double backoff_s = policy.initial_backoff_s;
  while (ops().fsync_fn(fd) != 0) {
    if (!transient_errno(errno) || !backoff_step(attempts_left, backoff_s)) {
      throw IoError("fsync", path, errno);
    }
  }
}

void rename_retry(const std::string& from, const std::string& to,
                  const RetryPolicy& policy) {
  int attempts_left = policy.max_attempts;
  double backoff_s = policy.initial_backoff_s;
  while (ops().rename_fn(from.c_str(), to.c_str()) != 0) {
    if (!transient_errno(errno) || !backoff_step(attempts_left, backoff_s)) {
      throw IoError("rename", to, errno);
    }
  }
}

void close_or_throw(int fd, const std::string& path) {
  if (ops().close_fn(fd) != 0 && errno != EINTR) {
    throw IoError("close", path, errno);
  }
}

void unlink_quiet(const std::string& path) {
  (void)ops().unlink_fn(path.c_str());
}

}  // namespace mmr::fsio

#endif  // __unix__
