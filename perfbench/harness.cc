#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "bench.hh"

namespace perfbench {

int
Tracer::begin(const char *name)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.run = run_;
    span.start = hostNow();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void
Tracer::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end = hostNow();
    stack_.pop_back();
}

double
Tracer::totalSeconds(const char *name) const
{
    double total = 0.0;
    for (const Span &span : spans_)
        if (std::strcmp(span.name, name) == 0)
            total += span.end - span.start;
    return total;
}

long
Tracer::count(const char *name) const
{
    return static_cast<long>(
        std::count_if(spans_.begin(), spans_.end(), [&](const Span &s) {
            return std::strcmp(s.name, name) == 0;
        }));
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char line[256];
        std::snprintf(line, sizeof(line),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                      "{\"id\":%zu,\"parent\":%d,\"run\":%d}}",
                      i == 0 ? "" : ",", s.name,
                      (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                      i, s.parent, s.run);
        out << line;
    }
    out << "\n]\n";
    out.flush();
    return static_cast<bool>(out);
}

bool
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    return ok;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

double
referenceKernel()
{
    struct Event
    {
        std::uint64_t when;
        std::uint64_t id;
        std::function<void()> fn;
        bool operator>(const Event &other) const
        {
            return when != other.when ? when > other.when : id > other.id;
        }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue;
    std::uint64_t now = 0;
    std::uint64_t id = 0;
    std::uint64_t lcg = 12345;
    long remaining = 200'000;
    auto delay = [&] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return (lcg >> 40) % 1000;
    };
    std::function<void()> event = [&] {
        if (remaining-- > 0)
            queue.push({now + delay(), id++, event});
    };
    const double t0 = hostNow();
    for (int i = 0; i < 1024; ++i)
        queue.push({delay(), id++, event});
    while (!queue.empty()) {
        Event next = queue.top();
        queue.pop();
        now = next.when;
        next.fn();
    }
    return hostNow() - t0;
}

} // namespace

double
referenceSeconds(int threads)
{
    std::vector<double> seconds(static_cast<std::size_t>(threads));
    std::vector<std::thread> others;
    for (int t = 1; t < threads; ++t)
        others.emplace_back([&seconds, t] {
            seconds[static_cast<std::size_t>(t)] = referenceKernel();
        });
    seconds[0] = referenceKernel();
    for (std::thread &other : others)
        other.join();
    double total = 0.0;
    for (double s : seconds)
        total += s;
    return total / threads;
}

double
atReferenceSpeed(const std::string &label,
                 const std::vector<HostSample> &samples)
{
    // A fixed scale, about the kernel's fastest time on the machine
    // of record (4-vCPU Xeon, Release build). On another machine every
    // value scales by one constant factor, which cancels when two
    // commits are compared there.
    constexpr double kReferenceSeconds = 0.03;
    std::printf("%s: %zu samples (host s):", label.c_str(), samples.size());
    std::vector<double> ratios;
    for (const HostSample &sample : samples) {
        std::printf(" %.6g", sample.seconds);
        ratios.push_back(sample.seconds / sample.reference);
    }
    std::printf("\n");
    return kReferenceSeconds * median(ratios);
}

double
hostMedian(const std::string &label, const std::vector<double> &seconds)
{
    std::printf("%s: %zu samples (host s):", label.c_str(), seconds.size());
    for (double s : seconds)
        std::printf(" %.6g", s);
    std::printf("\n");
    return median(seconds);
}

double
peakRssMb()
{
    // VmHWM is this process image's own high-water mark. getrusage's
    // ru_maxrss would also carry the launching process's peak across
    // exec.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0.0;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

bool
moreReps(double started, double budget, double last_rep, int reps_done,
         int min_reps)
{
    if (reps_done < min_reps)
        return true;
    return hostNow() - started + last_rep <= budget;
}

} // namespace perfbench
