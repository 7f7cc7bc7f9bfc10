#include "src/buffer/segment_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace qsys {

Result<std::unique_ptr<SegmentFile>> SegmentFile::Create(
    const std::string& path, SegmentFaultInjector* injector) {
  if (injector != nullptr) {
    SegmentFaultInjector::Fault f =
        injector->Next(SegmentFaultInjector::Op::kOpen);
    if (f.err != 0) {
      return Status::Internal("spill segment open failed: " + path + ": " +
                              std::strerror(f.err) + " (injected)");
    }
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("spill segment open failed: " + path + ": " +
                            std::strerror(errno));
  }
  return std::unique_ptr<SegmentFile>(new SegmentFile(path, fd, injector));
}

SegmentFile::~SegmentFile() {
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());  // scratch storage: nothing survives the run
}

PageId SegmentFile::AllocatePage() {
  if (!free_.empty()) {
    PageId page = free_.back();
    free_.pop_back();
    return page;
  }
  return next_page_++;
}

void SegmentFile::FreePage(PageId page) {
  if (page < written_.size() && written_[page]) {
    written_[page] = false;
    --written_pages_;
  }
  free_.push_back(page);
}

Status SegmentFile::WritePage(PageId page, const void* data) {
  const char* p = static_cast<const char*>(data);
  int64_t remaining = kPageSize;
  off_t offset = static_cast<off_t>(page) * kPageSize;
  while (remaining > 0) {
    size_t want = static_cast<size_t>(remaining);
    if (injector_ != nullptr) {
      SegmentFaultInjector::Fault f =
          injector_->Next(SegmentFaultInjector::Op::kWrite);
      if (f.err != 0) {
        return Status::Internal("spill segment write failed: " +
                                std::string(std::strerror(f.err)) +
                                " (injected)");
      }
      // A short transfer: ask the kernel for less, exactly as a real
      // partial pwrite would deliver less. The loop resumes after it.
      if (f.short_io) want = std::max<size_t>(size_t{1}, want / 2);
    }
    ssize_t n = ::pwrite(fd_, p, want, offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("spill segment write failed: " +
                              std::string(std::strerror(errno)));
    }
    p += n;
    offset += n;
    remaining -= n;
  }
  if (page >= written_.size()) written_.resize(page + 1);
  if (!written_[page]) {
    written_[page] = true;
    ++written_pages_;
  }
  return Status::OK();
}

Status SegmentFile::ReadPage(PageId page, void* data) const {
  char* p = static_cast<char*>(data);
  int64_t remaining = kPageSize;
  off_t offset = static_cast<off_t>(page) * kPageSize;
  while (remaining > 0) {
    size_t want = static_cast<size_t>(remaining);
    if (injector_ != nullptr) {
      SegmentFaultInjector::Fault f =
          injector_->Next(SegmentFaultInjector::Op::kRead);
      if (f.err != 0) {
        return Status::Internal("spill segment read failed: " +
                                std::string(std::strerror(f.err)) +
                                " (injected)");
      }
      if (f.short_io) want = std::max<size_t>(size_t{1}, want / 2);
    }
    ssize_t n = ::pread(fd_, p, want, offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("spill segment read failed: " +
                              std::string(std::strerror(errno)));
    }
    if (n == 0) {
      // Reading past EOF of a sparse tail: pages are written before
      // they are ever read back, so this indicates a bad page number.
      return Status::OutOfRange("spill segment read past end of file");
    }
    p += n;
    offset += n;
    remaining -= n;
  }
  return Status::OK();
}

}  // namespace qsys
