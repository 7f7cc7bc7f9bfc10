// SegmentFile: one file-backed store of fixed-size pages.
//
// The spill tier keeps every spilled payload, hash tables and probe
// caches alike, in one segment file. A segment hands out page numbers
// from a free list (recycling pages released by restored or superseded
// spill handles) and reads/writes whole pages by offset. Segments are
// scratch storage: the file is unlinked when the segment is destroyed.

#ifndef QSYS_BUFFER_SEGMENT_FILE_H_
#define QSYS_BUFFER_SEGMENT_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/buffer/fault_injection.h"
#include "src/buffer/page.h"
#include "src/common/status.h"

namespace qsys {

/// \brief Page-granular file storage for the spill tier.
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
  PageId AllocatePage();

  /// Returns `page` to the free list for reuse.
  void FreePage(PageId page);

  /// Writes exactly kPageSize bytes of `data` at `page`.
  Status WritePage(PageId page, const void* data);

  /// Reads exactly kPageSize bytes into `data` from `page`.
  Status ReadPage(PageId page, void* data) const;

  const std::string& path() const { return path_; }

  /// Pages currently allocated (not on the free list).
  int64_t live_pages() const {
    return static_cast<int64_t>(next_page_) -
           static_cast<int64_t>(free_.size());
  }
  /// Bytes of live spilled state on disk: pages written at least once
  /// and not freed since. A page that never left its pool frame counts
  /// nothing. Shrinks as restores/drops recycle pages (the file itself
  /// keeps its high-water size; it is scratch storage, unlinked on
  /// close).
  int64_t bytes_on_disk() const { return written_pages_ * kPageSize; }

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
  PageId next_page_ = 0;
  std::vector<PageId> free_;
  /// By page number: written since it was last allocated.
  std::vector<bool> written_;
  int64_t written_pages_ = 0;
  SegmentFaultInjector* injector_ = nullptr;
};

}  // namespace qsys

#endif  // QSYS_BUFFER_SEGMENT_FILE_H_
