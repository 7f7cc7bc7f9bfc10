#include "src/buffer/buffer_manager.h"

#include <cstring>

namespace qsys {

BufferManager::BufferManager(int frame_count) {
  if (frame_count < 1) frame_count = 1;
  frames_.resize(static_cast<size_t>(frame_count));
  for (int i = frame_count - 1; i >= 0; --i) {
    frames_[static_cast<size_t>(i)].data =
        std::make_unique<uint8_t[]>(kPageSize);
    free_frames_.push_back(i);
  }
}

Result<int> BufferManager::AcquireFrame() {
  if (!free_frames_.empty()) {
    int idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  // Clock sweep: skip pinned frames, give referenced frames a second
  // chance, evict the first quiescent one (writing it back if dirty).
  size_t inspected = 0;
  const size_t limit = frames_.size() * 2;
  while (inspected++ < limit) {
    Frame& f = frames_[clock_hand_];
    size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (f.pins > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (f.dirty) {
      // A failed write leaves the victim resident and dirty: nothing is
      // lost, and a later sweep retries it.
      QSYS_RETURN_IF_ERROR(segment_->WritePage(f.id, f.data.get()));
      ++pages_written_;
      f.dirty = false;
    }
    frame_of_.erase(f.id);
    f.id = kInvalidPageId;
    return static_cast<int>(idx);
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: every frame is pinned");
}

Result<BufferManager::AllocatedPage> BufferManager::NewPage() {
  if (segment_ == nullptr) {
    return Status::InvalidArgument("no segment attached to the pool");
  }
  auto frame = AcquireFrame();
  QSYS_RETURN_IF_ERROR(frame.status());
  PageId id = segment_->AllocatePage();
  Frame& f = frames_[static_cast<size_t>(frame.value())];
  f.id = id;
  f.pins = 1;
  f.dirty = true;  // written if its frame is ever recycled
  f.referenced = true;
  std::memset(f.data.get(), 0, kPageSize);
  frame_of_[id] = frame.value();
  return AllocatedPage{id, f.data.get()};
}

Result<uint8_t*> BufferManager::Pin(PageId id) {
  auto it = frame_of_.find(id);
  if (it != frame_of_.end()) {
    Frame& f = frames_[static_cast<size_t>(it->second)];
    ++f.pins;
    f.referenced = true;
    return f.data.get();
  }
  if (segment_ == nullptr) {
    return Status::InvalidArgument("pin with no segment attached");
  }
  auto frame = AcquireFrame();
  QSYS_RETURN_IF_ERROR(frame.status());
  Frame& f = frames_[static_cast<size_t>(frame.value())];
  Status read = segment_->ReadPage(id, f.data.get());
  if (!read.ok()) {
    free_frames_.push_back(frame.value());
    return read;
  }
  ++pages_read_;
  f.id = id;
  f.pins = 1;
  f.dirty = false;
  f.referenced = true;
  frame_of_[id] = frame.value();
  return f.data.get();
}

void BufferManager::Unpin(PageId id, bool dirty) {
  auto it = frame_of_.find(id);
  if (it == frame_of_.end()) return;
  Frame& f = frames_[static_cast<size_t>(it->second)];
  if (f.pins > 0) --f.pins;
  f.dirty = f.dirty || dirty;
}

Status BufferManager::Free(PageId id) {
  auto it = frame_of_.find(id);
  if (it != frame_of_.end()) {
    Frame& f = frames_[static_cast<size_t>(it->second)];
    if (f.pins > 0) {
      return Status::FailedPrecondition("freeing a pinned page");
    }
    f.id = kInvalidPageId;
    f.dirty = false;
    free_frames_.push_back(it->second);
    frame_of_.erase(it);
  }
  segment_->FreePage(id);
  return Status::OK();
}

}  // namespace qsys
