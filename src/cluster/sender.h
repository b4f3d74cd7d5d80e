// The router's outgoing side of one worker socket.
//
// Frames to a worker are decided under the worker set's lock but must not be
// written under it, and a thread that also reads the worker's results must
// never block on a write to it: the worker may itself be blocked writing a
// result that only that thread would read. FrameSender splits the two:
// Queue() encodes a frame and appends it (cheap, callable under any lock),
// Flush() writes what the socket takes at once without blocking, and a
// writer thread of its own writes whatever the socket did not take. Frames
// leave in the order they were queued.
#ifndef TDLIB_CLUSTER_SENDER_H_
#define TDLIB_CLUSTER_SENDER_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "cluster/wire.h"

namespace tdlib {

class FrameSender {
 public:
  /// Sends on `fd`, which the caller owns and keeps open until Close()
  /// returns. `on_error` runs once, on the thread whose write failed (the
  /// peer is gone, or cluster.socket-write fired); later frames are dropped.
  FrameSender(int fd, std::function<void()> on_error);

  /// Close()s.
  ~FrameSender();

  FrameSender(const FrameSender&) = delete;
  FrameSender& operator=(const FrameSender&) = delete;

  /// Appends one frame (damaged when cluster.frame-corrupt fires). Never
  /// writes to the socket.
  void Queue(FrameType type, std::string_view payload);

  /// Writes queued frames as far as the socket takes them without
  /// blocking; the writer thread writes the rest. Never blocks on the
  /// socket.
  void Flush();

  /// Writes what is still queued, blocking, and stops the writer thread.
  /// Later Queue and Flush calls do nothing. Shut the socket down first to
  /// drop the rest instead.
  void Close();

 private:
  void WriterLoop();

  const int fd_;
  const std::function<void()> on_error_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string pending_;   ///< queued bytes not yet written, in order
  bool writing_ = false;  ///< a thread is writing bytes taken from pending_
  bool spilled_ = false;  ///< the writer thread owns pending_ until empty
  bool failed_ = false;
  bool closed_ = false;
  std::thread writer_;
};

}  // namespace tdlib

#endif  // TDLIB_CLUSTER_SENDER_H_
