// Typed filesystem error for the durability layer.
//
// AtomicFile and the campaign journal previously threw bare
// std::runtime_error with errno text baked into the message; callers
// that need to react to the *kind* of failure (retryable vs fatal, which
// path, which operation) had to parse strings. IoError keeps the message
// (so every existing catch site still reads well) but carries the
// operation, path, and errno as typed fields. It derives from
// std::runtime_error, so code catching the old type keeps working.
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
