#include "obs/tracing.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "util/jsonl.hpp"

namespace vguard::obs {

namespace {

constexpr const char *kPhaseNames[kNumPhases] = {
    "cpu_step", "power", "pdn", "control", "events",
};

// Thread-local buffer cache: each thread owns its slot outright, so
// no synchronisation question arises. The epoch check invalidates the
// cached pointer whenever the tracer drops its buffers.
thread_local void *tlsBuf = nullptr;
thread_local uint64_t tlsEpoch = 0;
// Batched cycles this thread has offered to sampleBlock().
thread_local uint64_t tlsBatchedCycles = 0;

} // namespace

uint64_t
Tracer::now()
{
    // The whitelisted wall-clock zone (vlint det-wallclock): values
    // feed only the Chrome export, the profile and wall_seconds,
    // never the canonical form or any deterministic artifact.
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Tracer &
Tracer::instance()
{
    // Internally synchronized: buffers_/names_ under m_, the enabled
    // flag and epoch are atomics, and per-thread buffers are written
    // only by their owning thread. Magic-static init is thread-safe.
    // vlint: allow(thread-static) internally synchronized singleton
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable(size_t perThreadCapacity)
{
    std::lock_guard<std::mutex> lock(m_);
    capacity_ = perThreadCapacity > 0 ? perThreadCapacity : 1;
    buffers_.clear();
    epoch_.fetch_add(1, std::memory_order_relaxed);
    t0_ = now();
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

void
Tracer::resume()
{
    std::lock_guard<std::mutex> lock(m_);
    if (t0_ == 0)
        return;  // never enabled: nothing to resume into
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(m_);
    buffers_.clear();
    epoch_.fetch_add(1, std::memory_order_relaxed);
    t0_ = now();
}

uint32_t
Tracer::intern(std::string_view name)
{
    std::lock_guard<std::mutex> lock(m_);
    const auto it = index_.find(name);
    if (it != index_.end())
        return it->second;
    const auto id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    index_.emplace(std::string(name), id);
    return id;
}

Tracer::ThreadBuf *
Tracer::threadBuf()
{
    const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    if (tlsBuf && tlsEpoch == epoch)
        return static_cast<ThreadBuf *>(tlsBuf);
    std::lock_guard<std::mutex> lock(m_);
    auto buf = std::make_unique<ThreadBuf>();
    // Reserved, not filled: untouched pages cost no memory.
    buf->events.reserve(capacity_);
    ThreadBuf *raw = buf.get();
    buffers_.push_back(std::move(buf));
    tlsBuf = raw;
    tlsEpoch = epoch;
    return raw;
}

TraceEvent *
Tracer::slot(ThreadBuf *&buf)
{
    buf = threadBuf();
    if (buf->events.size() == buf->events.capacity())
        return nullptr;
    return &buf->events.emplace_back();
}

TraceEvent *
Tracer::beginSpan(uint32_t name, TraceClass cls, bool detached)
{
    if (!enabled())
        return nullptr;
    ThreadBuf *buf;
    TraceEvent *ev = slot(buf);
    if (!ev) {
        ++(cls == TraceClass::Det ? buf->droppedDet
                                  : buf->droppedWall);
        return nullptr;
    }
    ev->type = TraceEvent::Type::Begin;
    ev->cls = cls;
    ev->detached = detached;
    ev->name = name;
    ev->ts = now() - t0_;
    return ev;
}

void
Tracer::endSpan(TraceClass cls)
{
    if (!enabled())
        return;
    ThreadBuf *buf;
    TraceEvent *ev = slot(buf);
    if (!ev) {
        ++(cls == TraceClass::Det ? buf->droppedDet
                                  : buf->droppedWall);
        return;
    }
    ev->type = TraceEvent::Type::End;
    ev->cls = cls;
    ev->ts = now() - t0_;
}

TraceEvent *
Tracer::instant(uint32_t name, TraceClass cls, bool detached)
{
    if (!enabled())
        return nullptr;
    ThreadBuf *buf;
    TraceEvent *ev = slot(buf);
    if (!ev) {
        ++(cls == TraceClass::Det ? buf->droppedDet
                                  : buf->droppedWall);
        return nullptr;
    }
    ev->type = TraceEvent::Type::Instant;
    ev->cls = cls;
    ev->detached = detached;
    ev->name = name;
    ev->ts = now() - t0_;
    return ev;
}

void
Tracer::counter(uint32_t name, double value)
{
    if (!enabled())
        return;
    ThreadBuf *buf;
    TraceEvent *ev = slot(buf);
    if (!ev) {
        ++buf->droppedWall;
        return;
    }
    ev->type = TraceEvent::Type::Counter;
    ev->cls = TraceClass::Wall;
    ev->name = name;
    ev->ts = now() - t0_;
    ev->value = value;
}

bool
Tracer::sampleBlock(uint64_t n, uint64_t blockCycles)
{
    // Counted from half a span, so a thread's first timed block is its
    // 32nd, and a pool thread that runs a few spans' worth rounds to
    // its share of samples instead of truncating.
    const uint64_t span = kSampleEvery * blockCycles;
    const uint64_t before = tlsBatchedCycles + span / 2;
    tlsBatchedCycles += n;
    return before / span != (before + n) / span;
}

void
Tracer::addPhase(Phase phase, uint64_t ns)
{
    PhaseProfile &p = threadBuf()->phases;
    p.ns[size_t(phase)] += ns;
    ++p.samples[size_t(phase)];
}

void
Tracer::addCycles(uint64_t total, uint64_t sampled)
{
    PhaseProfile &p = threadBuf()->phases;
    p.cyclesTotal += total;
    p.cyclesSampled += sampled;
}

PhaseProfile
Tracer::profile() const
{
    std::lock_guard<std::mutex> lock(m_);
    PhaseProfile sum;
    for (const auto &buf : buffers_) {
        const PhaseProfile &p = buf->phases;
        for (size_t i = 0; i < kNumPhases; ++i) {
            sum.ns[i] += p.ns[i];
            sum.samples[i] += p.samples[i];
        }
        sum.cyclesTotal += p.cyclesTotal;
        sum.cyclesSampled += p.cyclesSampled;
    }
    return sum;
}

std::string
PhaseProfile::json() const
{
    uint64_t totalNs = 0;
    for (uint64_t n : ns)
        totalNs += n;

    JsonWriter w;
    w.beginObject();
    w.field("cycles_total", cyclesTotal);
    w.field("cycles_sampled", cyclesSampled);
    w.key("phases").beginObject();
    for (size_t i = 0; i < kNumPhases; ++i) {
        w.key(kPhaseNames[i]).beginObject();
        w.field("ns", ns[i]);
        w.field("samples", samples[i]);
        w.field("share", totalNs
                             ? double(ns[i]) / double(totalNs)
                             : 0.0);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.take();
}

Tracer::Stats
Tracer::stats() const
{
    std::lock_guard<std::mutex> lock(m_);
    Stats s;
    s.threads = buffers_.size();
    for (const auto &buf : buffers_) {
        s.events += buf->events.size();
        s.droppedDet += buf->droppedDet;
        s.droppedWall += buf->droppedWall;
    }
    return s;
}

namespace {

void
appendArg(JsonWriter &w, const std::vector<std::string> &names,
          const TraceArg &a)
{
    const std::string &key = names[a.key];
    switch (a.kind) {
    case TraceArg::Kind::U64:
        w.field(key, a.v.u);
        break;
    case TraceArg::Kind::F64:
        w.field(key, a.v.f);
        break;
    case TraceArg::Kind::Str:
        w.field(key, names[a.v.s]);
        break;
    }
}

/**
 * Arg emission order: sorted by key name. Insertion sort over at most
 * kMaxTraceArgs indices (std::sort's insertion threshold trips
 * -Warray-bounds on arrays this small).
 */
void
sortArgOrder(std::array<uint8_t, kMaxTraceArgs> &order, uint8_t n,
             const std::vector<std::string> &names, const TraceArg *args)
{
    for (uint8_t i = 0; i < n; ++i)
        order[i] = i;
    for (uint8_t i = 1; i < n; ++i) {
        const uint8_t v = order[i];
        uint8_t j = i;
        while (j > 0 &&
               names[args[v].key] < names[args[order[j - 1]].key]) {
            order[j] = order[j - 1];
            --j;
        }
        order[j] = v;
    }
}

/** Args object with keys emitted in sorted-by-name order. */
void
appendArgsSorted(JsonWriter &w, const std::vector<std::string> &names,
                 const TraceEvent &ev)
{
    std::array<uint8_t, kMaxTraceArgs> order{};
    sortArgOrder(order, ev.nargs, names, ev.args);
    w.key("args").beginObject();
    for (uint8_t i = 0; i < ev.nargs; ++i)
        appendArg(w, names, ev.args[order[i]]);
    w.endObject();
}

/** One µs timestamp (Chrome trace-event unit) from a ns offset. */
double
toMicros(uint64_t ns)
{
    return static_cast<double>(ns) / 1000.0;
}

} // namespace

std::string
Tracer::chromeJson() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::string out = "{\"traceEvents\":[";
    bool firstEvent = true;
    auto emit = [&](JsonWriter &w) {
        if (!firstEvent)
            out += ',';
        firstEvent = false;
        out += "\n";
        out += w.take();
    };

    for (size_t b = 0; b < buffers_.size(); ++b) {
        const ThreadBuf &buf = *buffers_[b];
        const uint64_t tid = b + 1;
        {
            JsonWriter w;
            w.beginObject();
            w.field("ph", "M");
            w.field("name", "thread_name");
            w.field("pid", uint64_t{1});
            w.field("tid", tid);
            w.key("args").beginObject();
            w.field("name", "trace-thread-" + std::to_string(tid));
            w.endObject();
            w.endObject();
            emit(w);
        }

        // Begin/End pairs become "X" complete events (args live on
        // the begin record). Spans still open at the buffer end are
        // closed at the last seen timestamp.
        std::vector<size_t> stack;
        uint64_t lastTs = 0;
        auto emitComplete = [&](const TraceEvent &begin, uint64_t end) {
            JsonWriter w;
            w.beginObject();
            w.field("ph", "X");
            w.field("name", names_[begin.name]);
            w.field("pid", uint64_t{1});
            w.field("tid", tid);
            w.field("ts", toMicros(begin.ts));
            w.field("dur",
                    toMicros(end >= begin.ts ? end - begin.ts : 0));
            appendArgsSorted(w, names_, begin);
            w.endObject();
            emit(w);
        };
        for (size_t i = 0; i < buf.events.size(); ++i) {
            const TraceEvent &ev = buf.events[i];
            lastTs = std::max(lastTs, ev.ts);
            switch (ev.type) {
            case TraceEvent::Type::Begin:
                stack.push_back(i);
                break;
            case TraceEvent::Type::End:
                if (!stack.empty()) {
                    emitComplete(buf.events[stack.back()], ev.ts);
                    stack.pop_back();
                }
                break;
            case TraceEvent::Type::Instant: {
                JsonWriter w;
                w.beginObject();
                w.field("ph", "i");
                w.field("name", names_[ev.name]);
                w.field("pid", uint64_t{1});
                w.field("tid", tid);
                w.field("ts", toMicros(ev.ts));
                w.field("s", "t");
                appendArgsSorted(w, names_, ev);
                w.endObject();
                emit(w);
                break;
            }
            case TraceEvent::Type::Counter: {
                JsonWriter w;
                w.beginObject();
                w.field("ph", "C");
                w.field("name", names_[ev.name]);
                w.field("pid", uint64_t{1});
                w.field("tid", tid);
                w.field("ts", toMicros(ev.ts));
                w.key("args").beginObject();
                w.field("value", ev.value);
                w.endObject();
                w.endObject();
                emit(w);
                break;
            }
            }
        }
        while (!stack.empty()) {
            emitComplete(buf.events[stack.back()], lastTs);
            stack.pop_back();
        }
    }

    uint64_t droppedDet = 0, droppedWall = 0;
    for (const auto &buf : buffers_) {
        droppedDet += buf->droppedDet;
        droppedWall += buf->droppedWall;
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
    out += "\"dropped_det\":" + std::to_string(droppedDet);
    out += ",\"dropped_wall\":" + std::to_string(droppedWall);
    out += "}}\n";
    return out;
}

namespace {

/** Canonical span-tree node (pool-indexed children). */
struct CanonNode
{
    uint32_t name = 0;
    bool instant = false;
    uint8_t nargs = 0;
    TraceArg args[kMaxTraceArgs];
    std::vector<size_t> children;
};

void
serializeCanon(const std::vector<CanonNode> &pool, size_t idx,
               const std::vector<std::string> &names, JsonWriter &w)
{
    const CanonNode &n = pool[idx];
    w.beginObject();
    w.field("name", names[n.name]);
    if (n.instant)
        w.field("instant", true);
    if (n.nargs > 0) {
        std::array<uint8_t, kMaxTraceArgs> order{};
        sortArgOrder(order, n.nargs, names, n.args);
        w.key("args").beginObject();
        for (uint8_t i = 0; i < n.nargs; ++i)
            appendArg(w, names, n.args[order[i]]);
        w.endObject();
    }
    if (!n.children.empty()) {
        w.key("children").beginArray();
        for (size_t c : n.children)
            serializeCanon(pool, c, names, w);
        w.endArray();
    }
    w.endObject();
}

} // namespace

std::string
Tracer::canonicalJsonl() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<CanonNode> pool;
    std::vector<size_t> roots;

    for (const auto &bufPtr : buffers_) {
        const ThreadBuf &buf = *bufPtr;
        std::vector<size_t> stack;
        auto place = [&](size_t node, bool detached) {
            if (detached || stack.empty())
                roots.push_back(node);
            else
                pool[stack.back()].children.push_back(node);
        };
        for (size_t i = 0; i < buf.events.size(); ++i) {
            const TraceEvent &ev = buf.events[i];
            if (ev.cls != TraceClass::Det)
                continue;  // Wall events never shape the canon
            switch (ev.type) {
            case TraceEvent::Type::Begin: {
                CanonNode n;
                n.name = ev.name;
                n.nargs = ev.nargs;
                std::copy(ev.args, ev.args + ev.nargs, n.args);
                const size_t idx = pool.size();
                pool.push_back(std::move(n));
                place(idx, ev.detached);
                stack.push_back(idx);
                break;
            }
            case TraceEvent::Type::End:
                if (!stack.empty())
                    stack.pop_back();
                break;
            case TraceEvent::Type::Instant: {
                CanonNode n;
                n.name = ev.name;
                n.instant = true;
                n.nargs = ev.nargs;
                std::copy(ev.args, ev.args + ev.nargs, n.args);
                const size_t idx = pool.size();
                pool.push_back(std::move(n));
                place(idx, ev.detached);
                break;
            }
            case TraceEvent::Type::Counter:
                break;
            }
        }
        // A span still open at export time closes implicitly; the
        // contract only covers traces with droppedDet == 0 anyway.
    }

    std::vector<std::string> lines;
    lines.reserve(roots.size());
    for (size_t r : roots) {
        JsonWriter w;
        serializeCanon(pool, r, names_, w);
        lines.push_back(w.take());
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &l : lines) {
        out += l;
        out += '\n';
    }
    return out;
}

// ------------------------------------------------------------- spans

TraceSpan::TraceSpan(const char *name, TraceClass cls, bool detached)
    : cls_(cls)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    ev_ = t.beginSpan(t.intern(name), cls, detached);
    open_ = ev_ != nullptr;
}

TraceSpan::~TraceSpan()
{
    if (open_ && ev_)
        Tracer::instance().endSpan(cls_);
}

namespace {

void
attachArg(TraceEvent *ev, const char *key, TraceArg::Kind kind,
          uint64_t u, double f, uint32_t s)
{
    if (!ev || ev->nargs >= kMaxTraceArgs)
        return;
    TraceArg &a = ev->args[ev->nargs++];
    a.key = Tracer::instance().intern(key);
    a.kind = kind;
    switch (kind) {
    case TraceArg::Kind::U64:
        a.v.u = u;
        break;
    case TraceArg::Kind::F64:
        a.v.f = f;
        break;
    case TraceArg::Kind::Str:
        a.v.s = s;
        break;
    }
}

} // namespace

TraceSpan &
TraceSpan::arg(const char *key, uint64_t v)
{
    attachArg(ev_, key, TraceArg::Kind::U64, v, 0.0, 0);
    return *this;
}

TraceSpan &
TraceSpan::arg(const char *key, double v)
{
    attachArg(ev_, key, TraceArg::Kind::F64, 0, v, 0);
    return *this;
}

TraceSpan &
TraceSpan::arg(const char *key, const char *v)
{
    attachArg(ev_, key, TraceArg::Kind::Str, 0, 0.0,
              Tracer::instance().intern(v));
    return *this;
}

TraceSpan &
TraceSpan::arg(const char *key, const std::string &v)
{
    attachArg(ev_, key, TraceArg::Kind::Str, 0, 0.0,
              Tracer::instance().intern(v));
    return *this;
}

TraceInstant::TraceInstant(const char *name, TraceClass cls,
                           bool detached)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    ev_ = t.instant(t.intern(name), cls, detached);
}

TraceInstant &
TraceInstant::arg(const char *key, uint64_t v)
{
    attachArg(ev_, key, TraceArg::Kind::U64, v, 0.0, 0);
    return *this;
}

TraceInstant &
TraceInstant::arg(const char *key, double v)
{
    attachArg(ev_, key, TraceArg::Kind::F64, 0, v, 0);
    return *this;
}

TraceInstant &
TraceInstant::arg(const char *key, const char *v)
{
    attachArg(ev_, key, TraceArg::Kind::Str, 0, 0.0,
              Tracer::instance().intern(v));
    return *this;
}

void
traceCounter(const char *track, double value)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    t.counter(t.intern(track), value);
}

} // namespace vguard::obs
