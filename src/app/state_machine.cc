#include "src/app/state_machine.h"

namespace hovercraft {

void StateMachine::SnapshotTo(SnapshotSink& sink) const {
  const Body image = SnapshotState();
  BufferWriter* w = sink.Begin(image.size());
  if (!image.empty()) {
    w->PutBytes(image.bytes());
  }
}

size_t StateMachine::SnapshotSize() const { return SnapshotBody(*this).size(); }

Body SnapshotBody(const StateMachine& app) {
  BufferWriter w;
  WriteSnapshot(app, [&w](size_t image_bytes) {
    w = BufferWriter(image_bytes);
    return &w;
  });
  return MakeBody(w.TakeBytes());
}

}  // namespace hovercraft
