// BufferManager: a fixed pool of in-memory frames fronting the spill
// segment file (the leanstore shape, radically simplified).
//
// Pages are pinned while a caller reads or writes their frame, marked
// dirty when modified, and written to the segment file only when the
// clock replacement sweep recycles their frame for another page. A page
// freed while still resident (restored or superseded before its frame
// was needed) is therefore never written at all. Faulting a
// non-resident page back in costs one segment read. The counters feed
// the spill metrics surfaced by the state manager and the serving
// layer.
//
// Thread safety: none of its own. The pool's one owner is a
// SpillManager, which makes every pool call under SpillManager::mu_, on
// the calling thread; that mutex also orders the pool's calls into the
// segment file.

#ifndef QSYS_BUFFER_BUFFER_MANAGER_H_
#define QSYS_BUFFER_BUFFER_MANAGER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/buffer/page.h"
#include "src/buffer/segment_file.h"
#include "src/common/status.h"

namespace qsys {

/// \brief Fixed-size frame pool with clock replacement over the pages
/// of one segment file.
class BufferManager {
 public:
  /// `frame_count` frames of kPageSize bytes each are allocated up
  /// front; the pool never grows.
  explicit BufferManager(int frame_count);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Makes `file` the pool's backing store. The file must outlive the
  /// manager.
  void Attach(SegmentFile* file) { segment_ = file; }

  /// A freshly allocated page with its frame pinned exactly once.
  struct AllocatedPage {
    PageId id = kInvalidPageId;
    /// The zeroed frame contents; valid until the single Unpin.
    uint8_t* frame = nullptr;
  };

  /// Allocates a fresh page and pins its (zeroed) frame. The caller
  /// fills `frame`, then calls Unpin(id, /*dirty=*/true) exactly once.
  Result<AllocatedPage> NewPage();

  /// Pins the page's frame, faulting it in from the segment if not
  /// resident. Fails when every frame is pinned (pool exhausted) or
  /// when writing back the recycled frame's dirty page fails.
  Result<uint8_t*> Pin(PageId id);

  /// Releases one pin; `dirty` records that the frame was modified and
  /// must be written back before its frame is recycled.
  void Unpin(PageId id, bool dirty);

  /// Releases the page entirely: drops its frame (without write-back)
  /// and returns the page number to the segment's free list. The page
  /// must not be pinned.
  Status Free(PageId id);

  int frame_count() const { return static_cast<int>(frames_.size()); }

  // ---- counters (spill observability) ----

  /// Pages written to disk (dirty frames recycled by the clock sweep).
  int64_t pages_written() const { return pages_written_; }
  /// Pages read back from disk (Pin() calls that missed the pool).
  int64_t pages_read() const { return pages_read_; }

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    int pins = 0;
    bool dirty = false;
    bool referenced = false;  // clock bit
    std::unique_ptr<uint8_t[]> data;
  };

  /// A frame holding no page, evicting an unpinned victim if needed.
  Result<int> AcquireFrame();

  std::vector<Frame> frames_;
  std::vector<int> free_frames_;
  std::unordered_map<PageId, int> frame_of_;
  SegmentFile* segment_ = nullptr;
  size_t clock_hand_ = 0;
  int64_t pages_written_ = 0;
  int64_t pages_read_ = 0;
};

}  // namespace qsys

#endif  // QSYS_BUFFER_BUFFER_MANAGER_H_
