/**
 * @file
 * The traced run: the three deployments rebuilt from the layers' public
 * constructors, with counters and timers at the layer boundaries.
 *
 * TracedSchedPoint and TracedRpcPoint wire the same objects in the same
 * order as workload::RunSchedExperiment and rpc::RunRpcExperiment, so
 * every traced point must end with the harness's event fingerprint;
 * RunTraced checks that it does. Two layers are replaced by equivalents
 * that can be observed from here:
 *
 *   - TracedWaveTransport is ghost::WaveSchedTransport with its queue
 *     endpoints and MSI-X vectors kept reachable, so the pcie and
 *     channel counters can be read after the run;
 *   - TimedPolicy wraps the scheduling policy (the one synchronous
 *     layer interface) and times every decision call.
 */
#include "traced.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>

#include "channel/bytes.h"
#include "check/coherence.h"
#include "check/hb.h"
#include "check/hooks.h"
#include "check/protocol.h"
#include "ghost/agent.h"
#include "ghost/kernel.h"
#include "ghost/transport.h"
#include "machine/machine.h"
#include "rpc/rpc_stack.h"
#include "sched/fifo.h"
#include "sched/shinjuku.h"
#include "sim/sync.h"
#include "stats/histogram.h"
#include "wave/runtime.h"
#include "wave/txn.h"
#include "workload/kv_service.h"
#include "workload/loadgen.h"

namespace perfbench {

using namespace wave;
using workload::Request;
using workload::RequestKind;

namespace {

// --- sched: the timing decorator -------------------------------------

/** Forwards every call to the wrapped policy, timing the decisions. */
class TimedPolicy : public ghost::SchedPolicy {
  public:
    explicit TimedPolicy(std::shared_ptr<ghost::SchedPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    std::string Name() const override { return inner_->Name(); }

    void
    OnMessage(const ghost::GhostMessage& message) override
    {
        Timed([&] { inner_->OnMessage(message); });
    }

    std::optional<ghost::GhostDecision>
    PickNext(int core, sim::TimeNs now) override
    {
        std::optional<ghost::GhostDecision> decision;
        Timed([&] { decision = inner_->PickNext(core, now); });
        return decision;
    }

    void
    OnDecisionFailed(const ghost::GhostDecision& decision) override
    {
        Timed([&] { inner_->OnDecisionFailed(decision); });
    }

    bool
    ShouldPreempt(int core, ghost::Tid running,
                  sim::DurationNs ran_for) const override
    {
        bool preempt = false;
        Timed([&] { preempt = inner_->ShouldPreempt(core, running, ran_for); });
        return preempt;
    }

    std::size_t
    RunQueueDepth() const override
    {
        std::size_t depth = 0;
        Timed([&] { depth = inner_->RunQueueDepth(); });
        return depth;
    }

    // Simulated-cost declarations, not decision logic: forwarded untimed.
    sim::DurationNs DecisionComputeNs() const override
    {
        return inner_->DecisionComputeNs();
    }
    sim::DurationNs PerMessageComputeNs() const override
    {
        return inner_->PerMessageComputeNs();
    }

    double HostNs() const { return host_ns_; }
    std::uint64_t Calls() const { return calls_; }

  private:
    template <typename F>
    void
    Timed(F&& f) const
    {
        const auto t0 = std::chrono::steady_clock::now();
        f();
        host_ns_ += std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        ++calls_;
    }

    std::shared_ptr<ghost::SchedPolicy> inner_;
    mutable double host_ns_ = 0;
    mutable std::uint64_t calls_ = 0;
};

// --- channel/pcie/wave: the observable Wave transport ----------------

constexpr std::size_t kDecisionSlot =
    TxnWire::DecisionPayloadSize(ghost::GhostWire::kDecisionPayload);

/**
 * ghost::WaveSchedTransport, call for call (see ghost/transport.cc),
 * plus accessors for its endpoints and counts of the calls made.
 */
class TracedWaveTransport : public ghost::SchedTransport {
  public:
    TracedWaveTransport(WaveRuntime& runtime, int cores)
        : runtime_(runtime), send_lock_(runtime.Sim(), 1)
    {
        messages_ = runtime.CreateHostToNicQueue(channel::QueueConfig{
            .capacity = 256,
            .payload_size = ghost::GhostWire::kMessagePayload,
            .sync_interval = 32});
        for (int core = 0; core < cores; ++core) {
            auto pc = std::make_unique<PerCore>();
            pc->decisions = runtime.CreateNicToHostQueue(channel::QueueConfig{
                .capacity = 64, .payload_size = kDecisionSlot,
                .sync_interval = 8});
            pc->outcomes = runtime.CreateHostToNicQueue(channel::QueueConfig{
                .capacity = 64, .payload_size = TxnWire::kOutcomeSize,
                .sync_interval = 8});
            pc->msix = runtime.CreateMsiXVector();
            pc->nic_txn = std::make_unique<NicTxnEndpoint>(
                *pc->decisions.nic, *pc->outcomes.nic, pc->msix.get());
            pc->host_txn = std::make_unique<HostTxnEndpoint>(
                *pc->decisions.host, *pc->outcomes.host, pc->msix.get());
            pc->interrupt = std::make_unique<ghost::CoreInterrupt>(runtime.Sim());
            ghost::CoreInterrupt* line = pc->interrupt.get();
            pc->msix->SetDeliveryHandler([line] { line->Raise(); });
            pc->nic_txn->SetFaultInjector(runtime.Injector());
            WAVE_CHECK_HOOK({
                pc->nic_txn->AttachProtocol(runtime.Protocol());
                pc->host_txn->AttachProtocol(runtime.Protocol());
                if (runtime.Hb() != nullptr) {
                    pc->msix->AttachHb(runtime.Hb(),
                                       pc->decisions.nic->HbActor(),
                                       pc->decisions.host->HbActor());
                }
            });
            percore_.emplace(core, std::move(pc));
        }
    }

    sim::Task<>
    HostSendMessage(const ghost::GhostMessage& message) override
    {
        std::vector<api::Bytes> batch;
        batch.push_back(
            channel::ToBytes(message, ghost::GhostWire::kMessagePayload));
        co_await send_lock_.Acquire();
        WAVE_CHECK_HOOK({
            if (auto* hb = runtime_.Hb()) {
                hb->OnAcquire(messages_.host->HbActor(), &send_lock_, 0);
            }
        });
        const std::size_t sent = co_await messages_.host->Send(batch);
        WAVE_CHECK_HOOK({
            if (auto* hb = runtime_.Hb()) {
                hb->OnRelease(messages_.host->HbActor(), &send_lock_, 0);
            }
        });
        send_lock_.Release();
        if (sent != 1) {
            std::fprintf(stderr, "ghOSt message queue overflow\n");
            std::abort();
        }
    }

    sim::Task<std::optional<ghost::PendingDecision>>
    HostPollDecision(int core, bool flush_first) override
    {
        ++polls_;
        auto txn = co_await For(core).host_txn->PollTxns(flush_first);
        if (!txn) co_return std::nullopt;
        ghost::PendingDecision out;
        out.txn_id = txn->id;
        out.decision = channel::FromBytes<ghost::GhostDecision>(txn->payload);
        co_return out;
    }

    sim::Task<>
    HostPrefetchDecision(int core) override
    {
        co_await For(core).host_txn->PrefetchTxns();
    }

    sim::Task<>
    HostSendOutcome(int core, const api::TxnOutcome& outcome) override
    {
        std::vector<api::TxnOutcome> batch;
        batch.push_back(outcome);
        co_await For(core).host_txn->SetTxnsOutcomes(batch);
    }

    ghost::CoreInterrupt&
    InterruptFor(int core) override
    {
        return *For(core).interrupt;
    }

    sim::DurationNs
    InterruptReceiveCost() const override
    {
        return runtime_.PcieCfg().msix_receive_ns;
    }

    sim::Task<std::vector<ghost::GhostMessage>>
    AgentPollMessages(std::size_t max) override
    {
        ++polls_;
        auto raw = co_await messages_.nic->PollBatch(max);
        std::vector<ghost::GhostMessage> out;
        out.reserve(raw.size());
        for (const auto& bytes : raw) {
            out.push_back(channel::FromBytes<ghost::GhostMessage>(bytes));
        }
        co_return out;
    }

    api::TxnId
    AgentStageDecision(const ghost::GhostDecision& d) override
    {
        ++txns_;
        return For(d.core).nic_txn->TxnCreate(
            channel::ToBytes(d, ghost::GhostWire::kDecisionPayload));
    }

    sim::Task<std::size_t>
    AgentCommit(int core, bool kick) override
    {
        co_return co_await For(core).nic_txn->TxnsCommit(kick);
    }

    sim::Task<std::vector<api::TxnOutcome>>
    AgentPollOutcomes(int core, std::size_t max) override
    {
        ++polls_;
        co_return co_await For(core).nic_txn->PollTxnsOutcomes(max);
    }

    sim::Task<>
    AgentKick(int core) override
    {
        co_await For(core).msix->Send();
    }

    int CoreCount() const override { return static_cast<int>(percore_.size()); }

    /** Adds this transport's pcie, channel and wave counts to @p c. */
    void AddCounts(Counters& c) const;

  private:
    struct PerCore {
        NicToHostChannel decisions;
        HostToNicChannel outcomes;
        std::unique_ptr<pcie::MsiXVector> msix;
        std::unique_ptr<NicTxnEndpoint> nic_txn;
        std::unique_ptr<HostTxnEndpoint> host_txn;
        std::unique_ptr<ghost::CoreInterrupt> interrupt;
    };

    PerCore&
    For(int core)
    {
        return *percore_.at(core);
    }

    WaveRuntime& runtime_;
    HostToNicChannel messages_;
    sim::Resource send_lock_;
    std::map<int, std::unique_ptr<PerCore>> percore_;
    std::uint64_t polls_ = 0;
    std::uint64_t txns_ = 0;
};

void
AddMmio(Counters& c, const pcie::MmioStats& s)
{
    c.roundtrip_reads += s.pcie_reads;
    c.cache_hits += s.cache_hits;
    c.posted_writes += s.posted_writes;
    c.wc_flushes += s.wc_flushes;
}

void
TracedWaveTransport::AddCounts(Counters& c) const
{
    AddMmio(c, messages_.host->WriteStats());
    c.channel_sends += messages_.host->Enqueued();
    for (const auto& [core, pc] : percore_) {
        (void)core;
        AddMmio(c, pc->outcomes.host->WriteStats());
        AddMmio(c, pc->decisions.host->ReadStats());
        c.channel_sends += pc->outcomes.host->Enqueued() +
                           pc->decisions.nic->Enqueued();
        c.msix_sends += pc->msix->SendCount();
    }
    c.channel_polls += polls_;
    c.txns += txns_;
    c.dma_transfers += runtime_.Dma().TransfersStarted();
}

// --- collection shared by both harness rebuilds ----------------------

std::uint64_t
CheckerHooks(const check::CheckerStats& s)
{
    return s.reads + s.writes + s.cache_fills + s.cache_drops +
           s.wc_buffered + s.wc_drains + s.dma_writes + s.ordering_points +
           s.shm_accesses;
}

std::uint64_t
HbHooks(const check::HbStats& s)
{
    return s.reads + s.writes + s.releases + s.acquires + s.allowed_unordered;
}

std::uint64_t
ProtocolHooks(const check::ProtocolStats& s)
{
    return s.txns_created + s.txns_published + s.txns_delivered +
           s.outcomes_reported + s.outcomes_observed + s.stream_sends +
           s.stream_recvs + s.commits_checked + s.task_transitions +
           s.watchdog_feeds;
}

/** Reads every layer's Stats() after a point has run. */
void
Collect(Counters& c, sim::Simulator& sim, WaveRuntime& runtime,
        const TracedWaveTransport* wave_transport, ghost::KernelSched& kernel,
        const ghost::GhostAgent& agent, const TimedPolicy& policy,
        std::uint64_t histogram_records)
{
    c.events += sim.EventsExecuted();
    if (wave_transport != nullptr) wave_transport->AddCounts(c);

    const ghost::KernelStats& ks = kernel.Stats();
    c.commits_ok += ks.commits_ok;
    c.commits_failed += ks.commits_failed;
    c.prestage_hits += ks.prestage_hits;
    c.idle_waits += ks.idle_waits;
    c.preemptions += ks.preemptions;
    c.ctx_switch.Merge(ks.ctx_switch_overhead);

    const ghost::AgentStats& as = agent.Stats();
    c.messages += as.messages;
    c.agent_iterations += as.iterations;
    c.kicks += as.kicks;
    c.decisions += as.decisions;

    c.sched_host_ns += policy.HostNs();
    c.sched_calls += policy.Calls();

    if (const check::CoherenceChecker* cc = runtime.Checker()) {
        c.coherence_hooks += CheckerHooks(cc->Stats());
        c.violations += cc->Violations().size();
    }
    if (const check::HbRaceDetector* hb = runtime.Hb()) {
        c.hb_hooks += HbHooks(hb->Stats());
        c.violations += hb->Races().size();
    }
    if (const check::ProtocolChecker* pc = runtime.Protocol()) {
        c.protocol_hooks += ProtocolHooks(pc->Stats());
        c.violations += pc->Violations().size();
    }

    c.stats_records += histogram_records + ks.ctx_switch_overhead.Count() +
                       agent.IterationLatency().Count();
    ++c.points;
}

std::shared_ptr<ghost::SchedPolicy>
MakePolicy(const workload::SchedExperimentConfig& cfg)
{
    switch (cfg.policy) {
      case workload::PolicyKind::kFifo:
        return std::make_shared<sched::FifoPolicy>();
      case workload::PolicyKind::kShinjuku:
        return std::make_shared<sched::ShinjukuPolicy>(cfg.slice_ns);
      case workload::PolicyKind::kMultiQueueShinjuku:
      default:
        return std::make_shared<sched::MultiQueueShinjukuPolicy>(
            cfg.slice_ns);
    }
}

// --- rpc: the steering stage and load generator ----------------------

/** rpc_experiment.cc's per-scenario costs, Offload-All row. */
struct SteeringCosts {
    sim::DurationNs steer_ns;
    sim::DurationNs slo_read_ns;
    sim::DurationNs worker_fetch_ns;
};

SteeringCosts
OffloadAllCosts(const pcie::PcieConfig& pcie)
{
    return {3 * pcie.nic_wb_access_ns, pcie.nic_wb_access_ns,
            pcie.mmio_read_ns};
}

struct SteeringStage {
    std::shared_ptr<std::deque<Request>> queue;
    SteeringCosts costs;
    bool multi_queue;
    workload::KvService* service;
    std::uint64_t steered;
};

sim::Task<>
RunSteeringStage(SteeringStage& stage, AgentContext& ctx)
{
    for (int i = 0; i < 8 && !stage.queue->empty(); ++i) {
        Request request = std::move(stage.queue->front());
        stage.queue->pop_front();
        sim::DurationNs cost = stage.costs.steer_ns;
        if (stage.multi_queue) cost += stage.costs.slo_read_ns;
        co_await ctx.Cpu().Work(cost);
        ++stage.steered;
        request.service_ns += stage.costs.worker_fetch_ns;
        stage.service->Submit(std::move(request));
    }
}

sim::Task<>
GenerateRpcLoad(sim::Simulator& sim, rpc::RpcStack& stack,
                std::shared_ptr<std::deque<Request>> queue,
                const rpc::RpcExperimentConfig& cfg)
{
    sim::Rng rng(cfg.seed);
    const double mean_gap_ns = 1e9 / cfg.offered_rps;
    std::uint64_t next_id = 1;
    const sim::TimeNs end{cfg.warmup_ns + cfg.measure_ns};
    while (sim.Now() < end) {
        co_await sim.Delay(sim::DurationNs::FromDouble(
            rng.NextExponential(mean_gap_ns)));
        if (sim.Now() >= end) break;
        Request request;
        request.id = next_id++;
        request.arrival = sim.Now();
        if (rng.NextBernoulli(cfg.get_fraction)) {
            request.kind = RequestKind::kGet;
            request.slo_class = 0;
            request.service_ns = cfg.get_service_ns;
        } else {
            request.kind = RequestKind::kRange;
            request.slo_class = 1;
            request.service_ns = cfg.range_service_ns;
        }
        stack.ProcessIncoming(std::move(request), [queue](Request r) {
            queue->push_back(std::move(r));
        });
    }
}

}  // namespace

PointResult
TracedSchedPoint(const workload::SchedExperimentConfig& cfg, Counters& c)
{
    sim::Simulator sim;

    machine::MachineConfig mc;
    mc.host_cores = cfg.worker_cores + 1;
    if (cfg.nic_speed > 0) mc.nic_speed = cfg.nic_speed;
    machine::Machine machine(sim, mc);

    WaveRuntime runtime(sim, machine, cfg.pcie, cfg.opt);

    std::vector<int> worker_cores;
    for (int i = 0; i < cfg.worker_cores; ++i) worker_cores.push_back(i);

    const bool on_nic = cfg.deployment == workload::Deployment::kWave;
    std::unique_ptr<ghost::SchedTransport> transport;
    TracedWaveTransport* wave_transport = nullptr;
    if (on_nic) {
        auto t = std::make_unique<TracedWaveTransport>(runtime,
                                                       cfg.worker_cores);
        wave_transport = t.get();
        transport = std::move(t);
    } else {
        transport = std::make_unique<ghost::ShmSchedTransport>(
            sim, cfg.worker_cores);
    }

    ghost::KernelOptions kernel_options;
    kernel_options.prefetch_decisions = !on_nic || cfg.opt.prestage_prefetch;
    kernel_options.poll_idle = cfg.poll_mode;
    ghost::KernelSched kernel(sim, machine, *transport, ghost::GhostCosts{},
                              kernel_options);

    const std::shared_ptr<ghost::SchedPolicy> inner = MakePolicy(cfg);
    auto policy = std::make_shared<TimedPolicy>(inner);
    ghost::AgentConfig agent_cfg;
    agent_cfg.cores = worker_cores;
    agent_cfg.prestage = cfg.prestage;
    agent_cfg.prestage_min_depth = cfg.prestage_min_depth;
    agent_cfg.use_kicks = !cfg.poll_mode;
    auto agent =
        std::make_shared<ghost::GhostAgent>(*transport, policy, agent_cfg);

    std::unique_ptr<AgentContext> host_agent_ctx;
    if (on_nic) {
        runtime.StartWaveAgent(agent, /*nic_core=*/0);
    } else {
        host_agent_ctx = std::make_unique<AgentContext>(
            sim, machine.HostCpu(cfg.worker_cores));
        sim.Spawn(agent->Run(*host_agent_ctx));
    }

    auto on_assign = [&inner, &cfg](ghost::Tid tid, std::uint32_t slo) {
        if (cfg.policy == workload::PolicyKind::kMultiQueueShinjuku) {
            static_cast<sched::MultiQueueShinjukuPolicy*>(inner.get())
                ->SetThreadSlo(tid, slo);
        }
    };
    workload::KvService service(sim, kernel, cfg.num_workers,
                                /*first_tid=*/1000, on_assign);
    service.SetMeasureWindow(sim::TimeNs{cfg.warmup_ns},
                             sim::TimeNs{cfg.warmup_ns + cfg.measure_ns});

    kernel.Start(worker_cores);

    workload::LoadGenConfig lg;
    lg.rate_rps = cfg.offered_rps;
    lg.get_fraction = cfg.get_fraction;
    lg.get_service_ns = cfg.get_service_ns;
    lg.range_service_ns = cfg.range_service_ns;
    lg.end_time = sim::TimeNs{cfg.warmup_ns + cfg.measure_ns};
    lg.seed = cfg.seed;
    sim.Spawn(workload::RunLoadGenerator(sim, service, lg));

    sim.RunUntil(sim::TimeNs{cfg.warmup_ns + cfg.measure_ns});

    const stats::Histogram& get = service.Latency(RequestKind::kGet);
    const stats::Histogram& range = service.Latency(RequestKind::kRange);
    Collect(c, sim, runtime, wave_transport, kernel, *agent, *policy,
            get.Count() + range.Count());
    c.requests += service.CompletedInWindow();

    PointResult p;
    p.offered_rps = cfg.offered_rps;
    p.fingerprint = sim.EventHash();
    p.completed = service.CompletedInWindow();
    p.achieved_rps = static_cast<double>(p.completed) /
                     sim::ToSec(cfg.measure_ns);
    p.get_p50_ns = get.Percentile(0.50);
    p.get_p99_ns = get.Percentile(0.99);
    return p;
}

PointResult
TracedRpcPoint(const rpc::RpcExperimentConfig& cfg, Counters& c)
{
    if (cfg.scenario != rpc::RpcScenario::kOffloadAll) {
        std::fprintf(stderr, "traced rebuild covers Offload-All only\n");
        std::abort();
    }
    sim::Simulator sim;

    machine::MachineConfig mc;
    mc.host_cores = cfg.rocksdb_cores + 1;
    if (cfg.nic_speed > 0) mc.nic_speed = cfg.nic_speed;
    machine::Machine machine(sim, mc);

    WaveRuntime runtime(sim, machine, cfg.pcie,
                        api::OptimizationConfig::Full());

    const SteeringCosts costs = OffloadAllCosts(cfg.pcie);

    std::vector<int> worker_cores;
    for (int i = 0; i < cfg.rocksdb_cores; ++i) worker_cores.push_back(i);

    auto transport =
        std::make_unique<TracedWaveTransport>(runtime, cfg.rocksdb_cores);
    ghost::KernelSched kernel(sim, machine, *transport);

    std::shared_ptr<ghost::SchedPolicy> inner;
    sched::MultiQueueShinjukuPolicy* mq_policy = nullptr;
    if (cfg.multi_queue) {
        auto mq =
            std::make_shared<sched::MultiQueueShinjukuPolicy>(cfg.slice_ns);
        mq_policy = mq.get();
        inner = mq;
    } else {
        inner = std::make_shared<sched::ShinjukuPolicy>(cfg.slice_ns);
    }
    auto policy = std::make_shared<TimedPolicy>(inner);

    std::vector<machine::Cpu*> rpc_cpus;
    for (int i = 0; i < cfg.rpc_cores; ++i) {
        rpc_cpus.push_back(&machine.NicCpu(1 + i));
    }
    rpc::RpcStack stack(sim, rpc_cpus, rpc::RpcCosts{});
    stack.Start();

    auto steering_queue = std::make_shared<std::deque<Request>>();
    SteeringStage steering{steering_queue, costs, cfg.multi_queue,
                           /*service=*/nullptr, /*steered=*/0};

    stats::Histogram latency[2];
    std::uint64_t completed_in_window = 0;
    const sim::TimeNs window_start{cfg.warmup_ns};
    const sim::TimeNs window_end{cfg.warmup_ns + cfg.measure_ns};

    auto on_assign = [&](ghost::Tid tid, std::uint32_t slo) {
        if (mq_policy != nullptr) mq_policy->SetThreadSlo(tid, slo);
    };
    workload::KvService service(sim, kernel, cfg.num_workers, 1000,
                                on_assign);
    service.SetCompletionHook([&](const Request& request) {
        stack.ProcessResponse(request, [&, arrival = request.arrival,
                                        kind = request.kind](Request) {
            if (arrival >= window_start && arrival < window_end) {
                ++completed_in_window;
                latency[static_cast<std::size_t>(kind)].Record(
                    (sim.Now() - arrival).ns());
            }
        });
    });

    ghost::AgentConfig agent_cfg;
    agent_cfg.cores = worker_cores;
    agent_cfg.prestage = true;
    agent_cfg.prestage_min_depth = 4;
    steering.service = &service;
    agent_cfg.aux_stage = [&steering](AgentContext& ctx) {
        return RunSteeringStage(steering, ctx);
    };
    auto agent =
        std::make_shared<ghost::GhostAgent>(*transport, policy, agent_cfg);
    runtime.StartWaveAgent(agent, /*nic_core=*/0);

    kernel.Start(worker_cores);

    sim.Spawn(GenerateRpcLoad(sim, stack, steering_queue, cfg));

    sim.RunUntil(window_end + 2'000'000);

    Collect(c, sim, runtime, transport.get(), kernel, *agent, *policy,
            latency[0].Count() + latency[1].Count());
    c.requests += completed_in_window;
    c.steered += steering.steered;

    PointResult p;
    p.offered_rps = cfg.offered_rps;
    p.fingerprint = sim.EventHash();
    p.completed = completed_in_window;
    p.achieved_rps = static_cast<double>(completed_in_window) /
                     sim::ToSec(cfg.measure_ns);
    p.get_p50_ns = latency[0].Percentile(0.50);
    p.get_p99_ns = latency[0].Percentile(0.99);
    return p;
}

}  // namespace perfbench
