// wave-domain: pcie
#include "wave/runtime.h"

#include <algorithm>

#include "check/coherence.h"
#include "check/hb.h"
#include "check/hooks.h"
#include "check/protocol.h"
#include "sim/inject.h"

namespace wave {

WaveRuntime::WaveRuntime(sim::Simulator& sim, machine::Machine& machine,
                         const pcie::PcieConfig& pcie_config,
                         const api::OptimizationConfig& opt,
                         std::size_t nic_dram_bytes)
    : sim_(sim),
      machine_(machine),
      pcie_config_(pcie_config),
      opt_(opt),
      dram_(std::make_unique<pcie::NicDram>(sim, pcie_config,
                                            /*size=*/0)),
      dma_(std::make_unique<pcie::DmaEngine>(sim, pcie_config)),
      dram_limit_(nic_dram_bytes)
{
    // DMA landings into the MMIO window must participate in the same
    // coherence machinery as NIC-core stores: invalidate host-cached
    // lines on coherent links, mark them stale on PCIe.
    dma_->SetWriteObserver([this](pcie::MemoryRegion& region,
                                  std::size_t offset, std::size_t n) {
        if (&region == &dram_->Backing()) {
            dram_->OnNicWrite(offset, n);
        }
    });
#ifdef WAVE_CHECK_ENABLED
    // Built with WAVE_CHECK (the default): every runtime carries the
    // cross-domain coherence checker, recording violations and warning
    // on stderr. Tests assert on Checker()->Violations().
    checker_ = std::make_unique<check::CoherenceChecker>(sim_);
    dram_->AttachChecker(checker_.get());
    dma_->AttachChecker(checker_.get());
    // The protocol verifier and the happens-before race detector ride
    // on the same gate; queue endpoints bind to them on creation.
    protocol_ = std::make_unique<check::ProtocolChecker>(sim_);
    hb_ = std::make_unique<check::HbRaceDetector>(sim_);
#endif
}

WaveRuntime::~WaveRuntime() = default;

std::size_t
WaveRuntime::AllocateDram(std::size_t bytes)
{
    // Line-align every allocation so queues never share cache lines.
    const std::size_t aligned =
        (bytes + pcie::PcieConfig::kLineSize - 1) /
        pcie::PcieConfig::kLineSize * pcie::PcieConfig::kLineSize;
    WAVE_ASSERT(dram_bump_ + aligned <= dram_limit_,
                "NIC DRAM window exhausted");
    const std::size_t base = dram_bump_;
    dram_bump_ += aligned;
    // Back only what is handed out: a deployment's footprint follows its
    // queues, not the size of the DRAM window.
    dram_->Backing().Grow(dram_bump_);
    // Size the coherence checker's line state for the new window.
    WAVE_CHECK_HOOK({
        if (checker_ != nullptr) {
            checker_->RegisterWindow(&dram_->Backing(), base, aligned);
        }
    });
    return base;
}

HostToNicChannel
WaveRuntime::CreateHostToNicQueue(const channel::QueueConfig& qc)
{
    HostToNicChannel chan;
    const std::size_t base =
        AllocateDram(channel::RingLayout(qc).BytesNeeded());
    chan.storage = std::make_unique<channel::MmioQueue>(*dram_, base, qc);
    const pcie::PteType write_type = opt_.host_wc_wt_ptes
                                         ? pcie::PteType::kWriteCombining
                                         : pcie::PteType::kUncacheable;
    const pcie::PteType counter_read = opt_.host_wc_wt_ptes
                                           ? pcie::PteType::kWriteThrough
                                           : pcie::PteType::kUncacheable;
    chan.host = std::make_unique<channel::HostProducer>(
        *chan.storage, write_type, counter_read);
    chan.nic = std::make_unique<channel::NicConsumer>(*chan.storage,
                                                      NicPte());
    WAVE_CHECK_HOOK({
        if (hb_ != nullptr) {
            chan.host->BindCheckers(hb_.get(), protocol_.get(),
                                    hb_->RegisterActor("host-producer"));
            chan.nic->BindCheckers(hb_.get(), protocol_.get(),
                                   hb_->RegisterActor("nic-consumer"));
        }
    });
    return chan;
}

NicToHostChannel
WaveRuntime::CreateNicToHostQueue(const channel::QueueConfig& qc)
{
    NicToHostChannel chan;
    const std::size_t base =
        AllocateDram(channel::RingLayout(qc).BytesNeeded());
    chan.storage = std::make_unique<channel::MmioQueue>(*dram_, base, qc);
    chan.nic = std::make_unique<channel::NicProducer>(*chan.storage,
                                                      NicPte());
    const pcie::PteType read_type = opt_.host_wc_wt_ptes
                                        ? pcie::PteType::kWriteThrough
                                        : pcie::PteType::kUncacheable;
    const pcie::PteType counter_write = opt_.host_wc_wt_ptes
                                            ? pcie::PteType::kWriteCombining
                                            : pcie::PteType::kUncacheable;
    chan.host = std::make_unique<channel::HostConsumer>(
        *chan.storage, read_type, counter_write);
    WAVE_CHECK_HOOK({
        if (hb_ != nullptr) {
            chan.nic->BindCheckers(hb_.get(), protocol_.get(),
                                   hb_->RegisterActor("nic-producer"));
            chan.host->BindCheckers(hb_.get(), protocol_.get(),
                                    hb_->RegisterActor("host-consumer"));
        }
    });
    return chan;
}

std::unique_ptr<channel::DmaQueue>
WaveRuntime::CreateDmaQueue(const channel::QueueConfig& qc,
                            pcie::DmaInitiator initiator)
{
    // Producer/consumer local costs: NIC agents pay their local access
    // cost; host DRAM access is folded into compute costs elsewhere.
    const sim::DurationNs nic_local =
        opt_.nic_wb_ptes ? pcie_config_.nic_wb_access_ns
                         : pcie_config_.nic_uncached_access_ns;
    const bool nic_is_producer = initiator == pcie::DmaInitiator::kNic;
    auto queue = std::make_unique<channel::DmaQueue>(
        sim_, *dma_, initiator, qc,
        /*producer_local_ns=*/nic_is_producer ? nic_local : 0,
        /*consumer_local_ns=*/nic_is_producer ? 0 : nic_local);
    WAVE_CHECK_HOOK(queue->AttachProtocol(protocol_.get()));
    return queue;
}

std::unique_ptr<pcie::MsiXVector>
WaveRuntime::CreateMsiXVector()
{
    auto vector = std::make_unique<pcie::MsiXVector>(sim_, pcie_config_);
    WAVE_CHECK_HOOK(vector->AttachChecker(checker_.get()));
    vector->SetFaultInjector(injector_);
    return vector;
}

void
WaveRuntime::AttachInjector(sim::inject::FaultInjector* injector)
{
    injector_ = injector;
    dram_->SetFaultInjector(injector);
    dma_->SetFaultInjector(injector);
}

AgentId
WaveRuntime::StartWaveAgent(std::shared_ptr<Agent> agent, machine::Cpu& cpu)
{
    AgentSlot slot;
    slot.agent = std::move(agent);
    slot.ctx = std::make_unique<AgentContext>(sim_, cpu);
    slot.alive = true;
    agents_.push_back(std::move(slot));
    const AgentId id = agents_.size() - 1;
    sim_.Spawn(RunAgent(id));
    return id;
}

// wave-lifetime(spawn-safe: only `this` is borrowed; the runtime owns the agent and endpoints and outlives the simulator run)
sim::Task<>
WaveRuntime::RunAgent(AgentId id)
{
    // This frame's share keeps the agent for a simulator that outlives
    // the runtime. Awaiting Run() transfers into it without an event.
    std::shared_ptr<Agent> agent = agents_[id].agent;
    co_await agent->Run(*agents_[id].ctx);
    agents_[id].alive = false;
}

void
WaveRuntime::KillWaveAgent(AgentId id)
{
    WAVE_ASSERT(id < agents_.size());
    agents_[id].ctx->stop_ = true;
}

void
WaveRuntime::StallWaveAgent(AgentId id, sim::DurationNs duration)
{
    WAVE_ASSERT(id < agents_.size());
    AgentContext& ctx = *agents_[id].ctx;
    ctx.stall_until_ = std::max(ctx.stall_until_, sim_.Now() + duration);
}

bool
WaveRuntime::AgentAlive(AgentId id) const
{
    WAVE_ASSERT(id < agents_.size());
    return agents_[id].alive;
}

}  // namespace wave
