// Typed filesystem error of the fsio layer (common/fs_ops.h) and of
// AtomicFile's commit.
//
// Callers that need to react to the *kind* of failure (retryable vs
// fatal, which path, which operation) read typed fields instead of
// parsing errno text out of a message. IoError keeps a readable message
// but carries the operation, path, and errno as typed fields. It derives
// from std::runtime_error, so code catching that type keeps working.
#pragma once

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace mmr {

class IoError : public std::runtime_error {
 public:
  /// `op` is the failing operation ("open", "write", "fsync", "rename",
  /// "close"), `path` the file it failed on, `error_code` the errno.
  IoError(std::string op, std::string path, int error_code)
      : std::runtime_error(op + " failed for '" + path +
                           "': " + std::strerror(error_code)),
        op_(std::move(op)),
        path_(std::move(path)),
        code_(error_code) {}

  const std::string& op() const { return op_; }
  const std::string& path() const { return path_; }
  /// The errno captured at the failure site.
  int code() const { return code_; }

 private:
  std::string op_;
  std::string path_;
  int code_;
};

}  // namespace mmr
