// Fixture: wave-lifetime contract attached to no Task-returning
// function head -> W304. The function it once named was renamed out
// from under the annotation. The contract on Drain below is attached
// to its head and must stay silent.
// wave-domain: neutral

namespace wave::fixture {

// wave-lifetime(caller-awaits)
inline int
NotACoroutineAnymore(int x)
{
    return x + 1;
}

struct Queue {
    int pending = 0;
};

// wave-lifetime(caller-awaits)
sim::Task<>
Drain(Queue& queue)
{
    while (queue.pending > 0) {
        co_await NextEvent();
        --queue.pending;
    }
}

}  // namespace wave::fixture
