/**
 * @file
 * A move-only callable with compile-time-checked inline capture
 * storage — the scheduling substrate's replacement for
 * std::function.
 *
 * Every event the simulator schedules used to be type-erased into a
 * std::function<void()>, which heap-allocates for any capture larger
 * than its tiny SBO buffer (16 bytes on libstdc++) — one allocation
 * per scheduled event on the hottest path in the program. InlineFn
 * stores the callable inline, always:
 *
 *  - callables up to @ref capacity bytes are placement-new'd into the
 *    entry itself; there is no heap fallback, so the dispatch path
 *    performs zero allocations by construction;
 *  - callables that do NOT fit fail to compile with a static_assert
 *    pointing at sim::boxed(). The size budget is a checked contract,
 *    not a heuristic: growing a hot lambda past the line is an
 *    explicit, reviewable decision at the call site.
 *
 * Hot multi-hop chains (a CU memory access, a fabric message) do not
 * carry continuations at all: they carry a pooled per-request record
 * by pointer, so every hop captures {component, record} and nothing
 * allocates (DESIGN.md §14.2). A capture that is genuinely large, or
 * that captures another InlineFn (which can never nest inside its
 * own fixed-size buffer), is boxed with sim::boxed(): it moves behind
 * a unique_ptr and costs one allocation at the capturing site. That
 * is kept to cold paths and telemetry-on wrappers.
 */

#ifndef GRIFFIN_SIM_INLINE_FN_HH
#define GRIFFIN_SIM_INLINE_FN_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace griffin::sim {

template <typename Signature>
class InlineFn;

/**
 * Move-only type-erased callable with inline storage.
 *
 * Semantics mirror std::function where they overlap: default/nullptr
 * construction yields an empty callable, contextual bool tests for a
 * target, assignment replaces the target. Unlike std::function it is
 * move-only (captures may own unique_ptrs) and never allocates.
 */
template <typename R, typename... Args>
class InlineFn<R(Args...)>
{
  public:
    /** Inline capture budget, in bytes. */
    static constexpr std::size_t capacity = 56;
    /** Maximum supported capture alignment. */
    static constexpr std::size_t alignment = alignof(void *);

    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFn> &&
                  !std::is_same_v<D, std::nullptr_t> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFn(F &&fn) noexcept(std::is_nothrow_constructible_v<D, F>)
    {
        construct<D>(std::forward<F>(fn));
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    /**
     * Replace the target with @p fn, building the capture directly in
     * this object's storage: no intermediate InlineFn is made and
     * relocated. An InlineFn argument is moved in like operator=.
     */
    template <typename F, typename D = std::decay_t<F>>
    void
    emplace(F &&fn) noexcept(std::is_same_v<D, InlineFn> ||
                             std::is_nothrow_constructible_v<D, F>)
    {
        if constexpr (std::is_same_v<D, InlineFn>) {
            *this = std::forward<F>(fn);
        } else {
            reset();
            construct<D>(std::forward<F>(fn));
        }
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** True when a target is set. */
    explicit operator bool() const noexcept { return _ops != nullptr; }

    /** Invoke the target (undefined when empty, as for std::function). */
    R
    operator()(Args... args) const
    {
        // Like std::function, invoking through a const wrapper calls a
        // non-const target; the buffer is logically mutable.
        return _ops->invoke(const_cast<unsigned char *>(_buf),
                            std::forward<Args>(args)...);
    }

  private:
    /**
     * The target's type-erased operations. A null relocate means the
     * capture is trivially copyable and a fixed capacity-byte memcpy
     * moves it; a null destroy means it is trivially destructible.
     * Either way the hot {component, record} captures move and die
     * without an indirect call.
     */
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static const Ops *
    opsFor()
    {
        static constexpr Ops ops{
            [](void *p, Args... args) -> R {
                return (*static_cast<D *>(p))(
                    std::forward<Args>(args)...);
            },
            std::is_trivially_copyable_v<D>
                ? nullptr
                : +[](void *dst, void *src) noexcept {
                      ::new (dst) D(std::move(*static_cast<D *>(src)));
                      static_cast<D *>(src)->~D();
                  },
            std::is_trivially_destructible_v<D>
                ? nullptr
                : +[](void *p) noexcept { static_cast<D *>(p)->~D(); }};
        return &ops;
    }

    /** Build a D from @p fn in the (empty) buffer. */
    template <typename D, typename F>
    void
    construct(F &&fn)
    {
        static_assert(std::is_invocable_r_v<R, D &, Args...>,
                      "InlineFn target is not callable with this "
                      "signature");
        static_assert(sizeof(D) <= capacity,
                      "capture too large for InlineFn's inline storage: "
                      "shrink the capture or wrap the callable in "
                      "sim::boxed()");
        static_assert(alignof(D) <= alignment,
                      "capture over-aligned for InlineFn storage");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "InlineFn requires nothrow-movable captures");
        ::new (static_cast<void *>(_buf)) D(std::forward<F>(fn));
        _ops = opsFor<D>();
    }

    void
    reset() noexcept
    {
        if (_ops) {
            if (_ops->destroy)
                _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    void
    moveFrom(InlineFn &other) noexcept
    {
        if (const Ops *ops = other._ops) {
            if (ops->relocate)
                ops->relocate(_buf, other._buf);
            else
                std::memcpy(_buf, other._buf, capacity);
            _ops = ops;
            other._ops = nullptr;
        }
    }

    alignas(alignment) unsigned char _buf[capacity];
    const Ops *_ops = nullptr;
};

/**
 * Move @p fn behind a unique_ptr and return an 8-byte callable that
 * forwards to it. Use at cold call sites whose capture cannot fit an
 * InlineFn inline — typically a lambda that captures a continuation
 * (itself an InlineFn) plus context. A per-access chain should carry
 * a pooled record by pointer instead, which allocates nothing.
 */
template <typename F>
auto
boxed(F &&fn)
{
    return [p = std::make_unique<std::decay_t<F>>(std::forward<F>(fn))](
               auto &&...args) -> decltype(auto) {
        return (*p)(std::forward<decltype(args)>(args)...);
    };
}

} // namespace griffin::sim

#endif // GRIFFIN_SIM_INLINE_FN_HH
