#ifndef GPIVOT_UTIL_SMALL_VECTOR_H_
#define GPIVOT_UTIL_SMALL_VECTOR_H_

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gpivot {

// A vector with inline storage for the first N elements, restricted to
// trivially copyable element types so growth and copies are memcpy.
//
// The columnar layer holds per-column typed payloads in these: delta tables
// in the IVM hot path are routinely a handful of rows, and per-column heap
// allocations would dominate the cost of building their column views. The
// join, group-by and pivot hash tables also use SmallVector for bucket
// candidate lists, which are almost always a single entry (unique keys).
template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector requires trivially copyable elements");
  static_assert(N > 0, "SmallVector needs at least one inline slot");

 public:
  SmallVector() = default;

  SmallVector(const SmallVector& other) { CopyFrom(other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      FreeHeap();
      CopyFrom(other);
    }
    return *this;
  }

  SmallVector(SmallVector&& other) noexcept { StealFrom(&other); }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      StealFrom(&other);
    }
    return *this;
  }

  ~SmallVector() { FreeHeap(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return heap_ == nullptr ? N : heap_capacity_; }

  T* data() { return heap_ == nullptr ? inline_ : heap_; }
  const T* data() const { return heap_ == nullptr ? inline_ : heap_; }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  T* begin() { return data(); }
  const T* begin() const { return data(); }
  T* end() { return data() + size_; }
  const T* end() const { return data() + size_; }

  void push_back(const T& value) {
    if (size_ == capacity()) Grow(size_ + 1);
    data()[size_++] = value;
  }

  void reserve(size_t want) {
    if (want > capacity()) Grow(want);
  }

  // New elements are value-initialized (zeroed, for the trivially copyable
  // types this container accepts).
  void resize(size_t new_size) {
    if (new_size > capacity()) Grow(new_size);
    if (new_size > size_) {
      std::memset(static_cast<void*>(data() + size_), 0,
                  (new_size - size_) * sizeof(T));
    }
    size_ = new_size;
  }

  void clear() { size_ = 0; }

  bool operator==(const SmallVector& other) const {
    if (size_ != other.size_) return false;
    return size_ == 0 ||
           std::memcmp(data(), other.data(), size_ * sizeof(T)) == 0;
  }

 private:
  void CopyFrom(const SmallVector& other) {
    heap_ = nullptr;
    size_ = other.size_;
    if (size_ <= N) {
      std::memcpy(inline_, other.data(), size_ * sizeof(T));
      return;
    }
    // More than N elements live on the heap, in `other` too.
    heap_capacity_ = size_;
    heap_ = static_cast<T*>(std::malloc(heap_capacity_ * sizeof(T)));
    if (heap_ == nullptr) throw std::bad_alloc();
    std::memcpy(heap_, other.heap_, size_ * sizeof(T));
  }

  void StealFrom(SmallVector* other) {
    heap_ = other->heap_;
    heap_capacity_ = other->heap_capacity_;
    size_ = other->size_;
    if (heap_ == nullptr && size_ > 0) {
      std::memcpy(inline_, other->inline_, size_ * sizeof(T));
    }
    other->heap_ = nullptr;
    other->size_ = 0;
  }

  void Grow(size_t want) {
    size_t new_capacity = capacity() * 2;
    if (new_capacity < want) new_capacity = want;
    T* new_heap = static_cast<T*>(std::malloc(new_capacity * sizeof(T)));
    if (new_heap == nullptr) throw std::bad_alloc();
    if (size_ > 0) std::memcpy(new_heap, data(), size_ * sizeof(T));
    FreeHeap();
    heap_ = new_heap;
    heap_capacity_ = new_capacity;
  }

  void FreeHeap() {
    std::free(heap_);
    heap_ = nullptr;
  }

  T inline_[N];
  T* heap_ = nullptr;
  size_t heap_capacity_ = 0;
  size_t size_ = 0;
};

}  // namespace gpivot

#endif  // GPIVOT_UTIL_SMALL_VECTOR_H_
