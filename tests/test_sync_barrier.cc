// SyncBarrier (store/sync_barrier.h): the flusher pool reports whether
// every descriptor's data barrier landed.  The group committer counts a
// round as durable only on success, so a pool that swallowed an fdatasync
// error would advance the durable floor over data the disk never confirmed.
// fdatasync on a pipe fails with EINVAL, which makes a real failing
// barrier without a faulty disk.
#include "udc/store/sync_barrier.h"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

namespace udc {
namespace {

namespace fs = std::filesystem;

class SyncBarrierEngines : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    // One directory per test process: ctest runs each case in its own.
    dir_ = fs::temp_directory_path() /
           ("udc_sync_barrier_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (int i = 0; i < 3; ++i) {
      const std::string path = (dir_ / ("f" + std::to_string(i))).string();
      const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
      ASSERT_GE(fd, 0);
      ASSERT_EQ(::write(fd, "frame", 5), 5);
      files_.push_back(fd);
    }
    ASSERT_EQ(::pipe(pipe_), 0);
  }
  void TearDown() override {
    for (int fd : files_) ::close(fd);
    ::close(pipe_[0]);
    ::close(pipe_[1]);
    fs::remove_all(dir_);
  }

  fs::path dir_;
  std::vector<int> files_;
  int pipe_[2] = {-1, -1};
};

TEST_P(SyncBarrierEngines, RegularFilesSync) {
  SyncBarrier barrier(GetParam());
  EXPECT_TRUE(barrier.sync(files_));
  EXPECT_TRUE(barrier.sync({files_[1]}));
  EXPECT_TRUE(barrier.sync({}));
}

TEST_P(SyncBarrierEngines, ARoundWithAPipeFails) {
  SyncBarrier barrier(GetParam());
  std::vector<int> round = files_;
  round.insert(round.begin() + 1, pipe_[1]);
  EXPECT_FALSE(barrier.sync(round));
  EXPECT_FALSE(barrier.sync({pipe_[1]}));
  // The failure belongs to its round only.
  EXPECT_TRUE(barrier.sync(files_));
}

// The parameter is the pool's thread count: the committer's.
INSTANTIATE_TEST_SUITE_P(SyncBarrier, SyncBarrierEngines,
                         ::testing::Values(kFlusherThreads),
                         [](const ::testing::TestParamInfo<int>&) {
                           return "pool";
                         });

}  // namespace
}  // namespace udc
