// Pages: the unit of the disk-spill tier (src/buffer/).
//
// Evicted query state is serialized into fixed-size pages of one
// segment file and staged through a small pool of in-memory frames
// (BufferManager). Hash tables and probe caches share that file, so a
// PageId is simply the page's number within it.

#ifndef QSYS_BUFFER_PAGE_H_
#define QSYS_BUFFER_PAGE_H_

#include <cstdint>

namespace qsys {

/// Fixed page size of the spill tier. Large enough that a typical
/// evicted hash table spans a handful of pages, small enough that the
/// buffer pool stays far below the query-state memory budget it backs.
constexpr int64_t kPageSize = 16 * 1024;

/// Page address: the page number within the spill segment file.
using PageId = uint64_t;

constexpr PageId kInvalidPageId = ~PageId{0};

}  // namespace qsys

#endif  // QSYS_BUFFER_PAGE_H_
