#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace vguard {

void
parallelFor(size_t count, unsigned threads,
            const std::function<void(size_t)> &fn)
{
    const size_t nWorkers = std::min<size_t>(threads, count);
    if (nWorkers <= 1) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // One shared cursor: each worker claims the lowest unclaimed index.
    // No index spawns more work, so a worker is done once the cursor
    // passes count.
    std::atomic<size_t> cursor{0};
    std::mutex errorMutex;
    std::exception_ptr firstError;

    auto worker = [&] {
        for (;;) {
            const size_t i = cursor.fetch_add(1);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(nWorkers);
    try {
        for (size_t w = 0; w < nWorkers; ++w)
            pool.emplace_back(worker);
    } catch (...) {
        // A thread failed to start: the workers already running still
        // drain the cursor, and must be joined before the error leaves.
        for (auto &t : pool)
            t.join();
        throw;
    }
    for (auto &t : pool)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace vguard
