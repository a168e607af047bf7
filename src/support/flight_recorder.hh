/**
 * @file
 * Black-box flight recorder: a fixed-size lock-free ring of recent
 * lifecycle events, dumped to a crash-report file when the process
 * dies (std::terminate, SIGUSR1) so a dead daemon leaves evidence.
 *
 * Recording is wait-free and TSan-clean: a writer claims a slot with
 * one `fetch_add` on the head ticket and publishes the payload with
 * per-slot sequence stamps (seqlock style, every field an atomic).
 * Writers never block and never allocate; a reader that catches a
 * slot mid-write sees a mismatched sequence and reports the slot as
 * torn instead of publishing garbage. While the recorder is disabled
 * (every non-daemon process), `recordEvent` costs exactly one
 * relaxed atomic load.
 *
 * The dump contains the event ring (oldest first), the active-job
 * table supplied by the host's callback, and a digest of the metrics
 * registry — everything needed to reconstruct what the daemon was
 * doing when it died. `fatal()` records a Fatal ring event at throw
 * time; a FatalError that escapes to std::terminate then crashes
 * with the event already on the ring (handled FatalErrors — e.g. a
 * bad request failing one job — stay in-process and write no file).
 */

#ifndef ARCHVAL_SUPPORT_FLIGHT_RECORDER_HH
#define ARCHVAL_SUPPORT_FLIGHT_RECORDER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace archval::flight
{

/** Event classes on the ring; names appear in the dump file. */
enum class EventKind : uint32_t
{
    None = 0,
    JobAccepted,
    JobStarted,
    JobProgress,
    JobDone,
    JobFailed,
    JobCancelled,
    JobRejected,
    FrameError,
    SpillFallback,
    SessionRestoreFailure,
    SessionEvicted,
    Fatal,
    Signal,
    ConnectionOpen,
    ConnectionClosed,
};

/** @return the stable dump-file name of @p kind ("job_started"). */
const char *eventKindName(EventKind kind);

struct FlightRecorderOptions
{
    /** Directory crash reports are written into; empty disables
     *  file dumps (the ring still records for dumpToString). */
    std::string crashDir;

    /** Ring capacity; rounded up to a power of two, min 64. */
    size_t ringCapacity = 1024;

    /** Returns a JSON array describing in-flight jobs, embedded in
     *  every dump. Must be callable from any thread. */
    std::function<std::string()> activeJobsJson;

    /** Install a SIGUSR1 handler that dumps on demand (self-pipe +
     *  watcher thread; the handler itself only write()s a byte). */
    bool handleSigusr1 = true;

    /** Chain a std::terminate handler that dumps before dying. */
    bool handleTerminate = true;
};

/**
 * Arm the recorder: allocate the ring, set the enabled flag, and
 * install the requested SIGUSR1 / terminate hooks. Idempotent per
 * process (a second call reconfigures crashDir/callback but keeps
 * the ring). Thread-safe.
 */
void initFlightRecorder(const FlightRecorderOptions &options);

/** Disarm: stop the watcher thread, restore the previous SIGUSR1
 *  disposition, and disable recording. The ring's contents survive
 *  (a later init re-arms over them). */
void shutdownFlightRecorder();

/** @return true when events are being recorded (one relaxed load). */
bool flightRecorderEnabled();

/**
 * Append one event. Wait-free; safe from any thread. @p detail is
 * truncated to 48 bytes (stored inline in the slot — no allocation).
 * While the recorder is disabled this is one relaxed atomic load.
 */
void recordEvent(EventKind kind, uint64_t a = 0, uint64_t b = 0,
                 std::string_view detail = {});

/** Events overwritten since init (ring wrap count). */
uint64_t droppedFlightEvents();

/**
 * Render the crash report as JSON: reason, pid, the event ring
 * (oldest first, torn slots marked), active jobs, and the metrics
 * registry digest. Always available, even with no crashDir.
 */
std::string dumpFlightRecorder(const std::string &reason);

/**
 * Write dumpFlightRecorder() to a timestamped file
 * (`crash-<unixtime>-<pid>-<seq>.json`, seq counting this process's
 * dumps from 0) under the configured crashDir.
 * @return the path written, or empty when disabled or on I/O error.
 */
std::string dumpFlightRecorderToFile(const std::string &reason);

} // namespace archval::flight

#endif // ARCHVAL_SUPPORT_FLIGHT_RECORDER_HH
