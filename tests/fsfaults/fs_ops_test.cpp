// fsio retry wrappers under injected faults: transient errnos retry
// with the documented doubling backoff, permanent errnos and exhausted
// budgets throw typed IoError naming the operation and path, and short
// writes resume where they left off.
#include "common/fs_ops.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "tests/fsfaults/fault_ops.h"

namespace mmr {
namespace {

class FsOpsFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mmr_fsops_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string dir_;
};

TEST_F(FsOpsFaultTest, TransientErrnosAreRetriedOthersAreNot) {
  EXPECT_TRUE(fsio::transient_errno(EINTR));
  EXPECT_TRUE(fsio::transient_errno(EAGAIN));
  EXPECT_TRUE(fsio::transient_errno(EBUSY));
  EXPECT_FALSE(fsio::transient_errno(ENOSPC));
  EXPECT_FALSE(fsio::transient_errno(EACCES));
  EXPECT_FALSE(fsio::transient_errno(ENOENT));
}

TEST_F(FsOpsFaultTest, OpenRetriesEintrWithDoublingBackoff) {
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_open = 3;
  const std::string path = dir_ + "/file";
  const int fd = fsio::open_retry(path, O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  fsio::close_or_throw(fd, path);
  // Three failures = three backoffs, each double the last.
  ASSERT_EQ(fsfaults::script().slept.size(), 3u);
  EXPECT_DOUBLE_EQ(fsfaults::script().slept[0], 0.0005);
  EXPECT_DOUBLE_EQ(fsfaults::script().slept[1], 0.001);
  EXPECT_DOUBLE_EQ(fsfaults::script().slept[2], 0.002);
}

TEST_F(FsOpsFaultTest, ExhaustedRetryBudgetThrowsIoErrorNamingTheOp) {
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_open = 100;  // never recovers
  const std::string path = dir_ + "/file";
  try {
    (void)fsio::open_retry(path, O_WRONLY | O_CREAT, 0644);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "open");
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.code(), EINTR);
  }
  // max_attempts = 5: the first try plus four retries, so four sleeps.
  EXPECT_EQ(fsfaults::script().slept.size(), 4u);
}

TEST_F(FsOpsFaultTest, PermanentErrnoFailsFastWithoutSleeping) {
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_open = 1;
  fsfaults::script().open_errno = EACCES;
  try {
    (void)fsio::open_retry(dir_ + "/file", O_WRONLY | O_CREAT, 0644);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), EACCES);
  }
  EXPECT_TRUE(fsfaults::script().slept.empty());
}

TEST_F(FsOpsFaultTest, ShortWritesResumeAndCompleteTheBuffer) {
  fsfaults::ScopedFaults faults;
  fsfaults::script().short_writes = true;
  const std::string path = dir_ + "/file";
  const std::string content = "one byte at a time, all the way through";
  const int fd = fsio::open_retry(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  fsio::write_all(fd, content.data(), content.size(), path);
  fsio::close_or_throw(fd, path);
  EXPECT_EQ(read_file(path), content);
  // Progress resets the budget, so no backoff was ever needed.
  EXPECT_TRUE(fsfaults::script().slept.empty());
}

TEST_F(FsOpsFaultTest, WriteEintrStormInterleavedWithProgressRecovers) {
  fsfaults::ScopedFaults faults;
  fsfaults::script().short_writes = true;
  fsfaults::script().fail_write = 4;  // consumed across the byte loop
  const std::string path = dir_ + "/file";
  const std::string content = "abcdefgh";
  const int fd = fsio::open_retry(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  fsio::write_all(fd, content.data(), content.size(), path);
  fsio::close_or_throw(fd, path);
  EXPECT_EQ(read_file(path), content);
  EXPECT_EQ(fsfaults::script().slept.size(), 4u);
}

TEST_F(FsOpsFaultTest, EnospcOnWriteIsTypedAndNamesThePath) {
  fsfaults::ScopedFaults faults;
  fsfaults::script().fail_write = 1;
  fsfaults::script().write_errno = ENOSPC;
  const std::string path = dir_ + "/file";
  const int fd = fsio::open_retry(path, O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  try {
    fsio::write_all(fd, "x", 1, path);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "write");
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.code(), ENOSPC);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  fsio::close_or_throw(fd, path);
  EXPECT_TRUE(fsfaults::script().slept.empty());
}

}  // namespace
}  // namespace mmr
