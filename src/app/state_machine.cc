#include "src/app/state_machine.h"

#include <utility>

namespace hovercraft {

void StateMachine::SnapshotTo(SnapshotSink& sink) const {
  const Body image = SnapshotState();
  BufferWriter* w = sink.Begin(image.size());
  if (!image.empty()) {
    w->PutBytes(image.bytes());
  }
}

size_t StateMachine::SnapshotSize() const { return SnapshotBody(*this).size(); }

std::unique_ptr<FrozenImage> StateMachine::Freeze() { return FreezeBody(SnapshotState()); }

Body SnapshotBody(const StateMachine& app) {
  BufferWriter w;
  WriteSnapshot(app, [&w](size_t image_bytes) {
    w = BufferWriter(image_bytes);
    return &w;
  });
  return MakeBody(w.TakeBytes());
}

std::unique_ptr<FrozenImage> FreezeBody(Body body) {
  class BodyImage final : public FrozenImage {
   public:
    explicit BodyImage(Body body) : body_(std::move(body)) {}
    size_t size() const override { return body_.size(); }
    void WriteTo(BufferWriter* w) const override {
      if (!body_.empty()) {
        w->PutBytes(body_.bytes());
      }
    }

   private:
    Body body_;
  };
  return std::make_unique<BodyImage>(std::move(body));
}

}  // namespace hovercraft
