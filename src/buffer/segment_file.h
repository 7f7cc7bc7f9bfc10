// SegmentFile: one file-backed store of fixed-size pages.
//
// The spill tier keeps one segment per spill class (hash tables, probe
// caches) so on-disk locality follows access locality. A segment hands
// out page numbers from a free list (recycling pages released by
// restored or superseded spill handles) and reads/writes whole pages by
// offset. Segments are scratch storage: the file is unlinked when the
// segment is destroyed.

#ifndef QSYS_BUFFER_SEGMENT_FILE_H_
#define QSYS_BUFFER_SEGMENT_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/buffer/fault_injection.h"
#include "src/buffer/page.h"
#include "src/common/status.h"

namespace qsys {

/// \brief Page-granular file storage for one spill class.
class SegmentFile {
 public:
  /// Creates (truncating) the backing file at `path`. `injector`, when
  /// non-null, is consulted before the open and before every page
  /// read/write (test seam; must outlive the segment).
  static Result<std::unique_ptr<SegmentFile>> Create(
      const std::string& path, SegmentFaultInjector* injector = nullptr);

  ~SegmentFile();
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// Hands out a page number: recycled from the free list when
  /// possible, otherwise extending the file.
  uint64_t AllocatePage();

  /// Returns `page_no` to the free list for reuse.
  void FreePage(uint64_t page_no);

  /// Writes exactly kPageSize bytes of `data` at page `page_no`.
  Status WritePage(uint64_t page_no, const void* data);

  /// Reads exactly kPageSize bytes into `data` from page `page_no`.
  Status ReadPage(uint64_t page_no, void* data) const;

  const std::string& path() const { return path_; }

  /// Pages currently allocated (not on the free list).
  int64_t live_pages() const {
    return static_cast<int64_t>(next_page_) -
           static_cast<int64_t>(free_.size());
  }
  /// Bytes of live spilled state addressed in this segment. Shrinks as
  /// restores/drops recycle pages (the file itself keeps its
  /// high-water size; it is scratch storage, unlinked on close).
  int64_t bytes_on_disk() const { return live_pages() * kPageSize; }

  /// Installs (or clears, with nullptr) the fault-injection seam on an
  /// already-open segment.
  void set_fault_injector(SegmentFaultInjector* injector) {
    injector_ = injector;
  }

 private:
  SegmentFile(std::string path, int fd, SegmentFaultInjector* injector)
      : path_(std::move(path)), fd_(fd), injector_(injector) {}

  std::string path_;
  int fd_;
  uint64_t next_page_ = 0;
  std::vector<uint64_t> free_;
  SegmentFaultInjector* injector_ = nullptr;
};

}  // namespace qsys

#endif  // QSYS_BUFFER_SEGMENT_FILE_H_
