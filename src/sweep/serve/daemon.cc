#include "sweep/serve/daemon.hh"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#ifdef __unix__
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "common/logging.hh"
#include "sweep/report.hh"
#include "sweep/serve/protocol.hh"
#include "sweep/store/result_store.hh"
#include "workloads/suite.hh"

namespace rab
{

#ifdef __unix__

namespace
{

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               // rablint: nondeterminism-ok=wall-clock (client
               // idle/reap deadlines; never reaches simulated state)
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Parse a submit frame's "campaign" member into a spec. Throws
 *  JsonError / std::runtime_error with a client-presentable message. */
CampaignSpec
specFromJson(const Json &json)
{
    CampaignSpec spec;
    if (const Json *name = json.find("name"))
        spec.name = name->asString();
    else
        spec.name = "daemon-job";

    spec.workloads.clear();
    for (const Json &w : json.at("workloads").elements()) {
        const std::string name = w.asString();
        if (!findWorkload(name))
            throw std::runtime_error("unknown workload '" + name + "'");
        spec.workloads.push_back(name);
    }
    spec.variants.clear();
    for (const Json &c : json.at("configs").elements())
        spec.variants.push_back(parseVariantLabel(c.asString()));
    if (const Json *seeds = json.find("seeds")) {
        spec.seeds.clear();
        for (const Json &s : seeds->elements())
            spec.seeds.push_back(s.asU64());
        if (spec.seeds.empty())
            spec.seeds = {0};
    }
    if (const Json *instructions = json.find("instructions"))
        spec.instructions = instructions->asU64();
    if (const Json *warmup = json.find("warmup"))
        spec.warmup = warmup->asU64();
    if (const Json *ff = json.find("fast_forward"))
        spec.fastForward = ff->asBool();
    if (const Json *sw = json.find("snapshot_warmup"))
        spec.snapshotWarmup = sw->asBool();
    if (spec.workloads.empty() || spec.variants.empty())
        throw std::runtime_error("empty grid (need workloads+configs)");
    return spec;
}

Json
errorFrame(const char *code, const std::string &message)
{
    Json f = Json::object();
    f["type"] = "error";
    f["code"] = code;
    f["message"] = message;
    return f;
}

struct Client;

struct Job
{
    std::uint64_t id = 0;
    std::shared_ptr<Client> client;
    CampaignSpec spec;
    std::vector<SweepPoint> grid;
    std::size_t next = 0;      ///< Next unclaimed grid index.
    std::size_t completed = 0;
    std::size_t inFlight = 0;
    bool cancelled = false;
    std::uint64_t storeHits = 0;
    CampaignResult result;
    /** Shared warmup images (spec.snapshotWarmup jobs only). */
    std::unique_ptr<WarmupImageCache> warmupCache;
};

struct Client
{
    /** The wake pipe closes with the last owner, not when the client
     *  thread exits: workers and drainAndWait() still write wake bytes
     *  through their shared_ptr copies, and a closed descriptor number
     *  can be reused by an unrelated open in the meantime. */
    ~Client()
    {
        if (wakeRx >= 0)
            ::close(wakeRx);
        if (wakeTx >= 0)
            ::close(wakeTx);
    }

    std::uint64_t id = 0;
    int fd = -1;
    int wakeRx = -1; ///< Worker-to-client wake pipe (read end).
    int wakeTx = -1;
    FrameConn conn{-1};

    std::mutex mutex; ///< Guards outbox only.
    std::deque<std::string> outbox;

    std::atomic<bool> dead{false};
    std::atomic<bool> finished{false}; ///< Thread has exited.
    std::size_t activeJobs = 0;        ///< Guarded by Impl::mutex.
    std::thread thread;
};

} // namespace

struct Daemon::Impl
{
    explicit Impl(const DaemonConfig &c) : config(c) {}

    DaemonConfig config;
    std::string errorText;
    std::unique_ptr<ResultStore> resultStore;
    std::string gitSha;
    int listenFd = -1;
    bool started = false;

    std::atomic<bool> draining{false};
    std::atomic<bool> shuttingDown{false};
    DaemonStats stats;

    std::mutex mutex; ///< Scheduler + client registry.
    std::condition_variable cv;
    std::vector<std::shared_ptr<Job>> jobs;
    std::size_t rr = 0; ///< Round-robin cursor over jobs.
    std::set<std::string> inFlightKeys;
    std::uint64_t nextJobId = 1;
    std::uint64_t nextClientId = 1;
    std::vector<std::shared_ptr<Client>> clients;

    std::thread acceptor;
    std::vector<std::thread> workers;

    // -----------------------------------------------------------------
    // Outbound frames

    void
    enqueue(const std::shared_ptr<Client> &client, const Json &frame)
    {
        if (client->dead)
            return;
        {
            std::lock_guard<std::mutex> lock(client->mutex);
            client->outbox.push_back(frame.dump());
        }
        const char byte = 1;
        // Wake the client thread out of its poll().
        (void)!::write(client->wakeTx, &byte, 1);
    }

    // -----------------------------------------------------------------
    // Scheduler

    /** Store key for a job's grid point (store attached only). */
    std::string
    keyOf(const Job &job, std::size_t index) const
    {
        return makeStoreKey(job.spec, job.grid[index], gitSha)
            .hashHex();
    }

    /**
     * Is any point claimable right now? Mirrors claim(): a job's
     * head point is claimable unless another worker is already
     * simulating the same store key (in-flight dedup — the waiter
     * will hit the store once the twin completes).
     */
    bool
    claimable() const
    {
        for (const auto &job : jobs) {
            if (job->cancelled || job->next >= job->grid.size())
                continue;
            if (resultStore
                && inFlightKeys.count(keyOf(*job, job->next)))
                continue;
            return true;
        }
        return false;
    }

    /** Claim the next point, fair round-robin across jobs. */
    std::shared_ptr<Job>
    claim(std::size_t &index, std::string &key)
    {
        const std::size_t count = jobs.size();
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t at = (rr + k) % count;
            const auto &job = jobs[at];
            if (job->cancelled || job->next >= job->grid.size())
                continue;
            key.clear();
            if (resultStore) {
                key = keyOf(*job, job->next);
                if (inFlightKeys.count(key))
                    continue;
                inFlightKeys.insert(key);
            }
            index = job->next++;
            ++job->inFlight;
            rr = (at + 1) % count;
            return job;
        }
        return nullptr;
    }

    /** Execute one point (store-first); called without the lock. */
    PointResult
    executePoint(const Job &job, std::size_t index, bool &cached)
    {
        const SweepPoint &point = job.grid[index];
        cached = false;

        // Snapshotted warmup: fork from the job's shared group image
        // (built by the first worker to reach the group). The image's
        // id is part of the store key — snapshot-warmed results are a
        // different universe than inline-warmed ones.
        const std::string *image = nullptr;
        std::string snapshot_id;
        if (job.warmupCache)
            image = job.warmupCache->get(job.spec, point, snapshot_id);

        if (resultStore) {
            const StoreKey key = makeStoreKey(
                job.spec, point, gitSha, image ? snapshot_id : "");
            if (auto hit = resultStore->lookup(key)) {
                PointResult pr = std::move(*hit);
                pr.point = point;
                pr.snapshotWarmed = image != nullptr;
                cached = true;
                ++stats.pointsCached;
                return pr;
            }
            PointResult pr =
                runPointWithRecovery(job.spec, point, image);
            if (pr.ok) {
                // A restore-time fallback to inline warmup belongs to
                // the inline-key universe.
                if (image && !pr.snapshotWarmed)
                    resultStore->put(
                        makeStoreKey(job.spec, point, gitSha), pr);
                else
                    resultStore->put(key, pr);
            }
            ++stats.pointsSimulated;
            return pr;
        }
        PointResult pr = runPointWithRecovery(job.spec, point, image);
        ++stats.pointsSimulated;
        return pr;
    }

    Json
    pointFrame(const Job &job, const PointResult &pr) const
    {
        Json f = Json::object();
        f["type"] = "point";
        f["job"] = job.id;
        f["index"] = pr.point.index;
        f["workload"] = pr.point.workload;
        f["variant"] = pr.point.variant;
        f["seed"] = pr.point.seed;
        f["ok"] = pr.ok;
        f["cached"] = pr.cached;
        if (pr.ok) {
            f["ipc"] = pr.result.ipc;
            f["cycles"] = pr.result.cycles;
        } else {
            f["error"] = pr.error;
            f["quarantined"] = pr.quarantined;
        }
        return f;
    }

    /** Job fully complete: manifest, done frame, retire. Lock held. */
    void
    finishJob(const std::shared_ptr<Job> &job)
    {
        job->result.interrupted = false;
        job->result.storeHits = job->storeHits;
        Json f = Json::object();
        f["type"] = "done";
        f["job"] = job->id;
        f["store_hits"] = job->storeHits;
        f["manifest"] = campaignManifest(job->result,
                                         /*canonical=*/true);
        enqueue(job->client, f);
        ++stats.jobsCompleted;
        retireJob(job);
    }

    /** Remove @p job from the active list. Lock held. */
    void
    retireJob(const std::shared_ptr<Job> &job)
    {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i] == job) {
                jobs.erase(jobs.begin()
                           + static_cast<std::ptrdiff_t>(i));
                if (rr > i)
                    --rr;
                if (!jobs.empty())
                    rr %= jobs.size();
                else
                    rr = 0;
                break;
            }
        }
        if (job->client->activeJobs > 0)
            --job->client->activeJobs;
    }

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            cv.wait(lock, [this] {
                return draining.load() || claimable();
            });
            if (draining)
                return;
            std::size_t index = 0;
            std::string key;
            const std::shared_ptr<Job> job = claim(index, key);
            if (!job)
                continue;
            lock.unlock();
            bool cached = false;
            PointResult pr = executePoint(*job, index, cached);
            lock.lock();
            if (!key.empty())
                inFlightKeys.erase(key);
            if (cached)
                ++job->storeHits;
            const bool deliver = !job->cancelled && !job->client->dead;
            job->result.points[index] = pr;
            ++job->completed;
            --job->inFlight;
            if (deliver)
                enqueue(job->client, pointFrame(*job, pr));
            if (!job->cancelled
                && job->completed == job->grid.size())
                finishJob(job);
            cv.notify_all();
        }
    }

    // -----------------------------------------------------------------
    // Client handling

    /** Cancel every job owned by @p client. Lock held. */
    void
    cancelClientJobs(const std::shared_ptr<Client> &client)
    {
        std::vector<std::shared_ptr<Job>> owned;
        for (const auto &job : jobs) {
            if (job->client == client)
                owned.push_back(job);
        }
        for (const auto &job : owned) {
            job->cancelled = true;
            retireJob(job);
        }
        cv.notify_all();
    }

    void
    reapClient(const std::shared_ptr<Client> &client, bool timed_out)
    {
        client->dead = true;
        if (timed_out)
            ++stats.clientsReaped;
        std::lock_guard<std::mutex> lock(mutex);
        cancelClientJobs(client);
    }

    void
    handleSubmit(const std::shared_ptr<Client> &client,
                 const Json &frame)
    {
        CampaignSpec spec;
        try {
            spec = specFromJson(frame.at("campaign"));
        } catch (const std::exception &e) {
            ++stats.badSpecs;
            enqueue(client, errorFrame("bad-spec", e.what()));
            return;
        }
        spec.checkLevel = config.checkLevel;
        spec.retryLimit = config.retryLimit;
        spec.retryBackoffMs = config.retryBackoffMs;

        std::lock_guard<std::mutex> lock(mutex);
        if (draining) {
            enqueue(client,
                    errorFrame("draining",
                               "daemon is draining; resubmit later"));
            return;
        }
        // Admission control: shed load with a structured error
        // instead of queueing without bound.
        if (jobs.size() >= config.maxActiveJobs) {
            ++stats.jobsShed;
            Json f = errorFrame(
                "queue-full",
                strprintf("%zu campaigns already active (limit %zu); "
                          "resubmit later",
                          jobs.size(), config.maxActiveJobs));
            f["active"] = static_cast<std::uint64_t>(jobs.size());
            f["limit"] =
                static_cast<std::uint64_t>(config.maxActiveJobs);
            enqueue(client, f);
            return;
        }
        auto job = std::make_shared<Job>();
        job->id = nextJobId++;
        job->client = client;
        job->spec = std::move(spec);
        job->grid = expandGrid(job->spec);
        if (job->grid.size() > config.maxPointsPerJob) {
            ++stats.jobsShed;
            enqueue(client,
                    errorFrame(
                        "too-large",
                        strprintf("grid has %zu points (limit %zu)",
                                  job->grid.size(),
                                  config.maxPointsPerJob)));
            return;
        }
        job->result.spec = job->spec;
        job->result.threads = config.threads;
        job->result.points.resize(job->grid.size());
        if (job->spec.snapshotWarmup) {
            job->warmupCache = std::make_unique<WarmupImageCache>(
                resultStore.get(), gitSha);
        }
        jobs.push_back(job);
        ++client->activeJobs;
        ++stats.jobsAccepted;

        Json f = Json::object();
        f["type"] = "accepted";
        f["job"] = job->id;
        f["points"] = static_cast<std::uint64_t>(job->grid.size());
        enqueue(client, f);
        cv.notify_all();
    }

    void
    handleFrame(const std::shared_ptr<Client> &client,
                const std::string &payload)
    {
        Json frame;
        try {
            frame = Json::parse(payload);
            const std::string &type = frame.at("type").asString();
            if (type == "submit") {
                handleSubmit(client, frame);
            } else if (type == "ping") {
                Json f = Json::object();
                f["type"] = "pong";
                enqueue(client, f);
            } else {
                enqueue(client,
                        errorFrame("protocol",
                                   "unknown frame type '" + type
                                       + "'"));
            }
        } catch (const JsonError &e) {
            enqueue(client,
                    errorFrame("protocol",
                               std::string("malformed frame: ")
                                   + e.what()));
        }
    }

    /** Flush the outbox; false means the client timed out mid-write
     *  (hung reader) and has been reaped. */
    bool
    flushOutbox(const std::shared_ptr<Client> &client)
    {
        for (;;) {
            std::string payload;
            {
                std::lock_guard<std::mutex> lock(client->mutex);
                if (client->outbox.empty())
                    return true;
                payload = client->outbox.front();
            }
            if (!client->conn.writeFrame(payload,
                                         config.ioTimeoutMs)) {
                reapClient(client, /*timed_out=*/true);
                return false;
            }
            std::lock_guard<std::mutex> lock(client->mutex);
            client->outbox.pop_front();
        }
    }

    bool
    clientIdle(const std::shared_ptr<Client> &client)
    {
        std::lock_guard<std::mutex> lock(mutex);
        return client->activeJobs == 0;
    }

    void
    clientLoop(const std::shared_ptr<Client> &client)
    {
        std::int64_t last_activity = nowMs();
        while (!client->dead) {
            if (!flushOutbox(client))
                break;
            if (shuttingDown) {
                // Drain: partial manifests were enqueued before the
                // flag flipped, and flushOutbox above emptied them.
                break;
            }

            struct pollfd pfds[2];
            pfds[0].fd = client->fd;
            pfds[0].events = POLLIN;
            pfds[0].revents = 0;
            pfds[1].fd = client->wakeRx;
            pfds[1].events = POLLIN;
            pfds[1].revents = 0;
            // rablint: nondeterminism-ok=socket-io (client event
            // loop; wire traffic only, simulation state untouched)
            const int n = ::poll(pfds, 2, 100);
            if (n < 0 && errno != EINTR)
                break;

            if (n > 0 && (pfds[1].revents & POLLIN)) {
                char sink[64];
                (void)!::read(client->wakeRx, sink, sizeof(sink));
            }

            if (n > 0
                && (pfds[0].revents & (POLLIN | POLLHUP | POLLERR))) {
                std::string payload;
                const FrameStatus status = client->conn.readFrame(
                    payload, config.ioTimeoutMs);
                if (status == FrameStatus::kOk) {
                    last_activity = nowMs();
                    handleFrame(client, payload);
                } else if (status == FrameStatus::kTimeout) {
                    // Mid-frame stall: cannot resync a byte stream.
                    reapClient(client, /*timed_out=*/true);
                    break;
                } else {
                    // Closed or garbage: a vanished client takes its
                    // unfinished jobs with it.
                    reapClient(client, /*timed_out=*/false);
                    break;
                }
            }

            if (clientIdle(client)
                && nowMs() - last_activity > config.idleTimeoutMs) {
                ++stats.clientsReaped;
                Json bye = errorFrame("idle-timeout",
                                      "closing idle connection");
                (void)client->conn.writeJson(bye, 100);
                reapClient(client, /*timed_out=*/false);
                break;
            }
        }
        client->dead = true;
        ::close(client->fd);
        client->finished = true;
    }

    // -----------------------------------------------------------------
    // Accept loop

    /** Join and drop clients whose threads have exited. Lock held
     *  by caller. */
    void
    sweepFinishedClients()
    {
        for (std::size_t i = 0; i < clients.size();) {
            if (clients[i]->finished) {
                if (clients[i]->thread.joinable())
                    clients[i]->thread.join();
                clients.erase(clients.begin()
                              + static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
    }

    void
    acceptLoop()
    {
        while (!draining) {
            struct pollfd pfd;
            pfd.fd = listenFd;
            pfd.events = POLLIN;
            pfd.revents = 0;
            // rablint: nondeterminism-ok=socket-io (daemon accept
            // loop; connection plumbing only)
            const int n = ::poll(&pfd, 1, 100);
            {
                std::lock_guard<std::mutex> lock(mutex);
                sweepFinishedClients();
            }
            if (draining)
                break;
            if (n <= 0)
                continue;
            // rablint: nondeterminism-ok=socket-io (ditto)
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                continue;

            int wake[2];
            if (::pipe(wake) != 0) {
                ::close(fd);
                continue;
            }
            auto client = std::make_shared<Client>();
            client->fd = fd;
            client->wakeRx = wake[0];
            client->wakeTx = wake[1];
            client->conn = FrameConn(fd);
            ++stats.clientsAccepted;
            {
                std::lock_guard<std::mutex> lock(mutex);
                client->id = nextClientId++;
                clients.push_back(client);
            }
            client->thread =
                std::thread([this, client] { clientLoop(client); });
        }
    }

    // -----------------------------------------------------------------
    // Lifecycle

    bool
    start()
    {
        if (!config.storeDir.empty()) {
            resultStore =
                std::make_unique<ResultStore>(config.storeDir);
            if (!resultStore->ok()) {
                errorText = resultStore->error();
                return false;
            }
        }
        gitSha = currentGitSha();

        ::unlink(config.socketPath.c_str());
        // rablint: nondeterminism-ok=socket-io (daemon listening
        // socket; service plumbing only)
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd < 0) {
            errorText = "socket(): " + std::string(strerror(errno));
            return false;
        }
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        if (config.socketPath.size() >= sizeof(addr.sun_path)) {
            errorText = "socket path too long: " + config.socketPath;
            ::close(listenFd);
            listenFd = -1;
            return false;
        }
        std::memcpy(addr.sun_path, config.socketPath.c_str(),
                    config.socketPath.size() + 1);
        if (::bind(listenFd,
                   reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof(addr))
                != 0
            || ::listen(listenFd, 16) != 0) {
            errorText = "bind/listen('" + config.socketPath
                + "'): " + std::string(strerror(errno));
            ::close(listenFd);
            listenFd = -1;
            return false;
        }

        const int worker_count = config.threads < 1 ? 1 : config.threads;
        workers.reserve(static_cast<std::size_t>(worker_count));
        for (int w = 0; w < worker_count; ++w)
            workers.emplace_back([this] { workerLoop(); });
        acceptor = std::thread([this] { acceptLoop(); });
        started = true;
        return true;
    }

    /** Stop accepting and wake every worker. The flag flips under the
     *  scheduler mutex: a worker that has just found the wait
     *  predicate false still holds the mutex until it blocks, so the
     *  notify cannot slip in between and leave it asleep for good. */
    void
    beginDrain()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            draining = true;
        }
        cv.notify_all();
    }

    void
    drainAndWait()
    {
        if (!started)
            return;
        beginDrain();
        if (acceptor.joinable())
            acceptor.join();
        // Workers finish their in-flight point, record it, then exit.
        for (std::thread &w : workers) {
            if (w.joinable())
                w.join();
        }
        workers.clear();

        // Every surviving job gets its partial manifest: completed
        // points are real (and in the store); unclaimed ones are
        // marked interrupted.
        {
            std::lock_guard<std::mutex> lock(mutex);
            for (const auto &job : jobs) {
                for (std::size_t i = 0; i < job->grid.size(); ++i) {
                    PointResult &p = job->result.points[i];
                    if (!p.ran) {
                        p.point = job->grid[i];
                        p.error = "interrupted: point not run";
                    }
                }
                job->result.interrupted = true;
                job->result.storeHits = job->storeHits;
                Json f = Json::object();
                f["type"] = "interrupted";
                f["job"] = job->id;
                f["manifest"] = campaignManifest(job->result,
                                                 /*canonical=*/true);
                enqueue(job->client, f);
                ++stats.jobsInterrupted;
                if (job->client->activeJobs > 0)
                    --job->client->activeJobs;
            }
            jobs.clear();
        }

        // Let every client flush its tail (point frames + partial
        // manifests), then close.
        shuttingDown = true;
        std::vector<std::shared_ptr<Client>> snapshot;
        {
            std::lock_guard<std::mutex> lock(mutex);
            snapshot = clients;
        }
        const char byte = 1;
        for (const auto &client : snapshot)
            (void)!::write(client->wakeTx, &byte, 1);
        for (const auto &client : snapshot) {
            if (client->thread.joinable())
                client->thread.join();
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            clients.clear();
        }

        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        ::unlink(config.socketPath.c_str());
        started = false;
    }
};

Daemon::Daemon(const DaemonConfig &config)
    : impl_(std::make_unique<Impl>(config))
{
}

Daemon::~Daemon()
{
    impl_->drainAndWait();
}

bool
Daemon::start()
{
    return impl_->start();
}

const std::string &
Daemon::error() const
{
    return impl_->errorText;
}

void
Daemon::requestDrain()
{
    impl_->beginDrain();
}

void
Daemon::drainAndWait()
{
    impl_->drainAndWait();
}

const DaemonStats &
Daemon::stats() const
{
    return impl_->stats;
}

ResultStore *
Daemon::store()
{
    return impl_->resultStore.get();
}

namespace
{

volatile std::sig_atomic_t g_serve_signal = 0;

void
onServeSignal(int sig)
{
    g_serve_signal = sig;
}

} // namespace

int
serveDaemon(const DaemonConfig &config)
{
    Daemon daemon(config);
    if (!daemon.start()) {
        std::fprintf(stderr, "rabsweep --serve: %s\n",
                     daemon.error().c_str());
        return 2;
    }
    g_serve_signal = 0;
    std::signal(SIGTERM, onServeSignal);
    std::signal(SIGINT, onServeSignal);
    std::fprintf(stderr,
                 "rabsweep daemon: listening on %s (%d workers, "
                 "store %s)\n",
                 config.socketPath.c_str(),
                 config.threads < 1 ? 1 : config.threads,
                 config.storeDir.empty() ? "disabled"
                                         : config.storeDir.c_str());
    while (g_serve_signal == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::fprintf(stderr,
                 "rabsweep daemon: signal %d, draining "
                 "(in-flight points finish, partial manifests "
                 "flush)\n",
                 static_cast<int>(g_serve_signal));
    daemon.drainAndWait();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    return 0;
}

#else // !__unix__

struct Daemon::Impl
{
    explicit Impl(const DaemonConfig &c) : config(c)
    {
        errorText = "daemon mode requires a unix platform";
    }
    DaemonConfig config;
    std::string errorText;
    DaemonStats stats;
};

Daemon::Daemon(const DaemonConfig &config)
    : impl_(std::make_unique<Impl>(config))
{
}

Daemon::~Daemon() = default;

bool
Daemon::start()
{
    return false;
}

const std::string &
Daemon::error() const
{
    return impl_->errorText;
}

void
Daemon::requestDrain()
{
}

void
Daemon::drainAndWait()
{
}

const DaemonStats &
Daemon::stats() const
{
    return impl_->stats;
}

ResultStore *
Daemon::store()
{
    return nullptr;
}

int
serveDaemon(const DaemonConfig &)
{
    std::fprintf(stderr,
                 "rabsweep --serve: unsupported on this platform\n");
    return 2;
}

#endif

} // namespace rab
