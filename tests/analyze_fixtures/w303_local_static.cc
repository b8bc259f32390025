// Fixture: one mutable function-local static -> W303 once. Every other
// shape here must stay silent: const and constexpr globals, a static
// const local, a declaration whose defaulted parameter sits on a
// continuation line, a class's static data member, an extern
// declaration, a forward class declaration, and a plain local named
// like a global.
// wave-domain: neutral

namespace wave::fixture {

class Registry;

extern int g_declared_elsewhere;

const int kLimit = 8;
constexpr int kDepth = 4;

struct Counter {
    static int instances;
    int value = 0;
};

int
Scale(int value,
      int factor = 2);

inline int
SwapTicket(int* fresh)
{
    static const int kBase = 100;
    static int* last = nullptr;
    int g_count = kBase + (last != nullptr ? *last : 0);
    last = fresh;
    return g_count;
}

}  // namespace wave::fixture
