#include "cluster/sender.h"

#include <utility>

namespace tdlib {

FrameSender::FrameSender(int fd, std::function<void()> on_error)
    : fd_(fd), on_error_(std::move(on_error)) {
  writer_ = std::thread([this] { WriterLoop(); });
}

FrameSender::~FrameSender() { Close(); }

void FrameSender::Queue(FrameType type, std::string_view payload) {
  std::string frame = EncodeFrameForSend(type, payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || failed_) return;
  if (pending_.empty()) {
    pending_ = std::move(frame);
  } else {
    pending_ += frame;
  }
}

void FrameSender::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  // A thread already writing takes up what was queued meanwhile.
  if (writing_ || spilled_ || failed_ || closed_) return;
  while (!pending_.empty() && !closed_) {
    writing_ = true;
    std::string bytes = std::move(pending_);
    pending_.clear();
    lock.unlock();
    std::size_t written = 0;
    const bool ok = SendBytes(fd_, bytes, &written, /*wait=*/false);
    // Still marked writing: Close() cannot let the socket's owner reap the
    // peer while on_error may signal it.
    if (!ok) on_error_();
    lock.lock();
    writing_ = false;
    if (!ok) {
      failed_ = true;
      pending_.clear();
    } else if (written < bytes.size()) {
      // The socket is full: hand the rest, and whatever follows it, to the
      // writer thread.
      pending_.insert(0, bytes, written, std::string::npos);
      spilled_ = true;
      break;
    }
  }
  // Only the writer thread (spilled) or Close() waits on cv_; waking the
  // writer after every flush would cost two context switches a frame.
  if (spilled_ || closed_) cv_.notify_all();
}

void FrameSender::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return closed_ || (spilled_ && !writing_); });
    if (closed_) return;
    writing_ = true;
    std::string bytes = std::move(pending_);
    pending_.clear();
    lock.unlock();
    std::size_t written = 0;
    const bool ok = SendBytes(fd_, bytes, &written, /*wait=*/true);
    if (!ok) on_error_();
    lock.lock();
    writing_ = false;
    if (!ok) {
      failed_ = true;
      pending_.clear();
    }
    if (pending_.empty()) spilled_ = false;
    cv_.notify_all();
  }
}

void FrameSender::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;  // no write starts from here on
  cv_.notify_all();
  cv_.wait(lock, [this] { return !writing_; });
  std::string rest = std::move(pending_);
  pending_.clear();
  const bool failed = failed_;
  lock.unlock();
  writer_.join();
  std::size_t written = 0;
  if (!failed && !SendBytes(fd_, rest, &written, /*wait=*/true)) {
    on_error_();
  }
}

}  // namespace tdlib
