// FrozenImage: the bytes of some state as it was at one instant, produced on
// demand. Taking one is cheap; WriteTo pays for the bytes, and only when
// something asks for them. A local snapshot file holds one until a read, a
// fault or recovery observes the file (docs/durability.md, "Snapshot write
// path").
#ifndef SRC_COMMON_FROZEN_IMAGE_H_
#define SRC_COMMON_FROZEN_IMAGE_H_

#include <cstddef>

#include "src/common/buffer.h"

namespace hovercraft {

class FrozenImage {
 public:
  virtual ~FrozenImage() = default;

  // Exact number of bytes WriteTo appends.
  virtual size_t size() const = 0;
  // Appends the image: exactly size() bytes, the same on every call.
  virtual void WriteTo(BufferWriter* w) const = 0;
};

}  // namespace hovercraft

#endif  // SRC_COMMON_FROZEN_IMAGE_H_
