// Fixture: checker instrumentation calls sitting bare in model code,
// outside WAVE_CHECK_HOOK and any WAVE_CHECK_ENABLED gate -> W005, once
// for a checker entry point and once for a ring end's report.
// wave-domain: pcie
namespace wave::fixture {

struct Checker {
    void OnWrite(unsigned addr, unsigned size);
};

struct StreamEnd {
    void SlotPublished(unsigned seq, unsigned offset, unsigned size);
};

void
StoreWord(Checker* checker)
{
    checker->OnWrite(0, 8);
}

void
PublishSlot(StreamEnd& end)
{
    end.SlotPublished(0, 0, 8);
}

}  // namespace wave::fixture
