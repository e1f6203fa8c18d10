// std::vector without the resize() memset, for buffers that are always
// fully overwritten before being read.
//
// vector<T>::resize value-initializes every new element — a full memset
// pass over the buffer. For the ingest pipeline's bucket columns that
// pass is pure waste: the columns are sized exactly by a counting pass
// and then every slot is written through a cursor (or by a batch
// kernel), so tens of MB per worker per period would be zeroed only to
// be overwritten. UninitAllocator makes value-initialization a no-op,
// turning resize() into a pure size bump (plus allocation when capacity
// grows). The batch decode's per-pair counts use it the same way: the
// sweep writes every slot exactly once.
//
// Only safe when every element in [0, size()) is written before it is
// read — the call sites must guarantee that, exactly as they would for a
// raw `new T[n]` buffer. Default member initializers are skipped too.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace vlm::common {

template <typename T, typename Base = std::allocator<T>>
class UninitAllocator : public Base {
 public:
  // Trivially copyable and trivially destructible types are created
  // implicitly by the allocation itself, so skipping construction leaves
  // valid objects with indeterminate values.
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "UninitAllocator only skips construction of trivially "
                "copyable, trivially destructible elements");
  using Base::Base;

  template <typename U>
  struct rebind {
    using other =
        UninitAllocator<U, typename std::allocator_traits<
                               Base>::template rebind_alloc<U>>;
  };

  // Value-initialization requests (the resize() path) leave the storage
  // as it is. Construction with arguments (push_back, emplace, copies)
  // is unchanged.
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  template <typename U>
  void construct(U*) noexcept {}
};

// Drop-in vector whose resize() leaves new elements indeterminate.
template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

}  // namespace vlm::common
