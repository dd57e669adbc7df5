/**
 * @file
 * Counting replacement for the global allocator, backing the
 * "allocation-free after warm-up" guards of per-cycle paths: a
 * reintroduced per-call heap allocation there is a real perf
 * regression, not a style nit. gAllocCount counts every operator new,
 * including the nothrow forms std::stable_sort takes its scratch
 * through.
 *
 * The header defines the replaceable allocation functions, so include
 * it from exactly one translation unit per test binary.
 */

#ifndef VGUARD_TESTS_ALLOC_COUNT_HPP
#define VGUARD_TESTS_ALLOC_COUNT_HPP

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}

// GCC pairs new-expressions at call sites with the visible free()-based
// operator delete and warns; replacing the global allocator with
// malloc/free in one TU is well-defined, so the warning is spurious.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

// The nothrow forms must count too, and pair with the free() below
// under ASan, which otherwise supplies its own.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // VGUARD_TESTS_ALLOC_COUNT_HPP
