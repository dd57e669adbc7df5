/**
 * @file
 * The one parallel loop: a fixed pool of workers claims the indices of
 * [0, count) from one shared atomic cursor. The campaign engine's job
 * dispatch and the stressmark calibration grid both run on it.
 *
 * Each worker takes the lowest unclaimed index, so indices start in
 * ascending order at any thread count, and no index runs twice. The
 * loop is deterministic as long as the body writes only index-private
 * state (a result slot per index); which worker ran an index is
 * scheduling and must never reach a result.
 */

#ifndef VGUARD_UTIL_PARALLEL_HPP
#define VGUARD_UTIL_PARALLEL_HPP

#include <cstddef>
#include <functional>

namespace vguard {

/**
 * Call @p fn(i) once for every i in [0, count) on min(threads, count)
 * workers; blocks until all have joined. With one worker the loop runs
 * serially on the calling thread and the first exception ends it at
 * once. With more, every index still runs after a throw, and the first
 * exception caught is rethrown on the calling thread once every worker
 * has joined; a worker thread that fails to start throws its
 * std::system_error after the started ones have drained and joined.
 */
void parallelFor(size_t count, unsigned threads,
                 const std::function<void(size_t)> &fn);

} // namespace vguard

#endif // VGUARD_UTIL_PARALLEL_HPP
