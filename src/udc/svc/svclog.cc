#include "udc/svc/svclog.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "udc/common/check.h"
#include "udc/store/wal.h"

namespace udc {

namespace {

FramePayloadFn collect_batches(std::vector<SvcBatch>& out) {
  return [&out](const std::uint8_t* payload, std::uint32_t len) {
    auto b = decode_svc_batch(payload, len);
    if (b) out.push_back(std::move(*b));
    return b.has_value();
  };
}

}  // namespace

SvcDurableLog::SvcDurableLog(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  UDC_CHECK(fd_ >= 0, "svclog: open(" + path_ +
                          ") failed: " + std::strerror(errno));
}

SvcDurableLog::~SvcDurableLog() {
  if (fd_ >= 0) ::close(fd_);
}

void SvcDurableLog::write(const SvcBatch& b) {
  // The batch is encoded straight behind the frame header's room.
  std::vector<std::uint8_t> frame(kFrameHeaderBytes);
  put_svc_batch(frame, b);
  wal_frame_into(frame.data() + kFrameHeaderBytes,
                 static_cast<std::uint32_t>(frame.size() - kFrameHeaderBytes),
                 frame.data());
  write_all(fd_, frame.data(), frame.size(), -1, path_);
  ++appended_;
}

void SvcDurableLog::sync() {
  UDC_CHECK(datasync(fd_) == 0, "svclog: fdatasync failed");
}

std::vector<SvcBatch> SvcDurableLog::read(const std::string& path) {
  std::vector<SvcBatch> out;
  read_frame_file(path, 0, collect_batches(out));
  return out;
}

std::vector<SvcBatch> SvcDurableLog::recover(const std::string& path) {
  std::vector<SvcBatch> out;
  repair_frame_file(path, collect_batches(out), /*sync=*/true);
  return out;
}

}  // namespace udc
