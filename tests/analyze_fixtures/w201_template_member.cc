// Fixture: out-of-line coroutine member of a class template, with no
// wave-lifetime contract -> W201 (the implicit `this`).
// wave-domain: host

namespace wave::fixture {

template <typename Queue, typename Sink>
class Drainer {
  public:
    sim::Task<> DrainInto();

  private:
    Queue queue_;
    Sink sink_;
};

template <typename Queue, typename Sink>
sim::Task<>
Drainer<Queue, Sink>::DrainInto()
{
    while (!queue_.Empty()) {
        co_await NextEvent();
        sink_.Push(queue_.Pop());
    }
}

}  // namespace wave::fixture
