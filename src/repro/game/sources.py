"""OffloadMini sources for the paper's workloads.

Each generator returns compilable source text, parameterised by world
size so tests stay fast and benchmarks can scale up.  The sources map
one-to-one onto the paper's artefacts:

* :func:`figure1_source` — the explicit-DMA collision update (Fig. 1).
* :func:`figure2_source` — the game frame loop with offloaded strategy
  calculation overlapping host collision detection (Fig. 2).
* :func:`component_system_source` — the Section 4.1 case study: an
  abstract component system offloaded monolithically, versus the
  type-specialised restructuring.
* :func:`ai_kernel_source` — the Section 4.1 AI-offload case study
  (virtual decision checks, host vs. offloaded).
* :func:`move_loop_source` — the Section 4.2 ``current->move()`` loop
  under each data-locality strategy.
* :func:`word_struct_source` — the Section 5 byte-fields-in-words
  workload for word-addressed targets.
"""

from __future__ import annotations


def figure1_source(entity_count: int = 16, pair_count: int = 8) -> str:
    """The Figure 1 idiom in OffloadMini: two tagged gets, one wait,
    collision response on local copies, two puts, one wait."""
    return f"""
struct GameEntity {{
    float x; float y; float vx; float vy;
    int health; int state;
}};
GameEntity g_entities[{entity_count}];
int g_first[{pair_count}];
int g_second[{pair_count}];

void seed() {{
    for (int i = 0; i < {pair_count}; i++) {{
        g_first[i] = i % {entity_count};
        g_second[i] = (i * 7 + 1) % {entity_count};
        if (g_second[i] == g_first[i]) {{
            g_second[i] = (g_second[i] + 1) % {entity_count};
        }}
    }}
    for (int i = 0; i < {entity_count}; i++) {{
        g_entities[i].vx = (float)(i % 5);
        g_entities[i].vy = (float)(i % 3);
        g_entities[i].health = 50;
    }}
}}

void main() {{
    seed();
    __offload {{
        GameEntity e1;   // Allocated in local store
        GameEntity e2;
        for (int i = 0; i < {pair_count}; i++) {{
            // Fetch game entities associated with collision
            dma_get(&e1, &g_entities[g_first[i]], sizeof(GameEntity), 3);
            dma_get(&e2, &g_entities[g_second[i]], sizeof(GameEntity), 3);
            dma_wait(3);   // Block until data arrives
            // do_collision_response: swap velocities, damage, mark
            float t = e1.vx; e1.vx = e2.vx; e2.vx = t;
            t = e1.vy; e1.vy = e2.vy; e2.vy = t;
            e1.health = e1.health - 1;
            e2.health = e2.health - 1;
            e1.state = e1.state | 1;
            e2.state = e2.state | 1;
            // Write back updated entities
            dma_put(&e1, &g_entities[g_first[i]], sizeof(GameEntity), 3);
            dma_put(&e2, &g_entities[g_second[i]], sizeof(GameEntity), 3);
            dma_wait(3);
        }}
    }};
    print_int(g_entities[0].state);
}}
"""


def figure1_racy_source() -> str:
    """A broken variant of Figure 1: the programmer forgot the wait
    between the puts and the next iteration's gets.  The dynamic race
    checker must flag it (get/put overlap in main memory)."""
    return """
struct GameEntity {
    float x; float y; float vx; float vy;
    int health; int state;
};
GameEntity g_entities[4];

void main() {
    __offload {
        GameEntity e1;
        for (int i = 0; i < 2; i++) {
            dma_get(&e1, &g_entities[0], sizeof(GameEntity), 3);
            dma_wait(3);
            e1.health = e1.health - 1;
            dma_put(&e1, &g_entities[0], sizeof(GameEntity), 3);
            // BUG: no dma_wait(3) before re-fetching the same entity
        }
        dma_wait(3);
    };
}
"""


def figure2_source(
    entity_count: int = 48,
    pair_count: int = 32,
    frames: int = 2,
    offloaded: bool = True,
    cache: str | None = None,
) -> str:
    """The Figure 2 frame loop.

    With ``offloaded=True``, ``calculateStrategy`` runs in an offload
    block (capturing ``this``) in parallel with the host's
    ``detectCollisions``; otherwise everything runs sequentially on the
    host — the baseline for the overlap measurement.
    """
    annotations = f"[cache({cache})]" if cache else ""
    if offloaded:
        do_frame = f"""
    void doFrame() {{
        __offload_handle_t h = __offload {annotations} {{
            // Offload to accelerator
            this->calculateStrategy();
        }};
        this->detectCollisions();   // Executed in parallel by host
        __offload_join(h);          // Wait for accelerator to complete
        this->updateEntities();
        this->renderFrame();
    }}"""
    else:
        do_frame = """
    void doFrame() {
        this->calculateStrategy();
        this->detectCollisions();
        this->updateEntities();
        this->renderFrame();
    }"""
    return f"""
struct Entity {{
    float x; float y; float vx; float vy;
    int hits; int pad;
}};
Entity g_entities[{entity_count}];
float g_scores[{entity_count}];
int g_first[{pair_count}];
int g_second[{pair_count}];
float g_rendered = 0.0f;

class GameWorld {{
    int frame;

    void calculateStrategy() {{
        // AI: nearest-neighbour threat scan per entity.
        Array<Entity, {entity_count}> ents(g_entities);
        for (int i = 0; i < {entity_count}; i++) {{
            float best = 1.0e9f;
            for (int j = 0; j < {entity_count}; j++) {{
                if (i != j) {{
                    float dx = ents[i].x - ents[j].x;
                    float dy = ents[i].y - ents[j].y;
                    float d = dx * dx + dy * dy;
                    if (d < best) {{ best = d; }}
                }}
            }}
            g_scores[i] = best;
        }}
    }}

    void detectCollisions() {{
        for (int k = 0; k < {pair_count}; k++) {{
            Entity* a = &g_entities[g_first[k]];
            Entity* b = &g_entities[g_second[k]];
            float dx = a->x - b->x;
            float dy = a->y - b->y;
            if (dx * dx + dy * dy < 4.0f) {{
                a->hits = a->hits + 1;
                b->hits = b->hits + 1;
            }}
        }}
    }}

    void updateEntities() {{
        for (int i = 0; i < {entity_count}; i++) {{
            g_entities[i].x = g_entities[i].x + g_entities[i].vx;
            g_entities[i].y = g_entities[i].y + g_entities[i].vy;
        }}
    }}

    void renderFrame() {{
        float acc = 0.0f;
        for (int i = 0; i < {entity_count}; i++) {{
            acc = acc + g_scores[i];
        }}
        g_rendered = acc;
        frame = frame + 1;
    }}
{do_frame}
}};

GameWorld g_world;

void seed() {{
    for (int i = 0; i < {entity_count}; i++) {{
        g_entities[i].x = (float)(i * 7 % 97);
        g_entities[i].y = (float)(i * 13 % 89);
        g_entities[i].vx = (float)(i % 5) - 2.0f;
        g_entities[i].vy = (float)(i % 3) - 1.0f;
    }}
    for (int k = 0; k < {pair_count}; k++) {{
        g_first[k] = k % {entity_count};
        g_second[k] = (k * 11 + 1) % {entity_count};
    }}
}}

void main() {{
    seed();
    for (int f = 0; f < {frames}; f++) {{
        g_world.doFrame();
    }}
    print_float(g_scores[0]);
    print_int(g_entities[0].hits);
    print_float(g_rendered);
}}
"""


def component_system_source(
    num_types: int = 13,
    entities_per_type: int = 13,
    methods_per_type: int = 8,
    specialized: bool = False,
    cache: str | None = "direct",
) -> str:
    """The Section 4.1 component-system case study.

    The abstract system stores every component behind a ``Component*``
    and one monolithic offload updates them all — requiring a domain
    annotation for every subclass implementation of every method.  The
    type-specialised restructuring runs one offload per component type,
    each annotated only with that type's methods.

    Defaults reproduce the paper's scale: 13 types x 13 entities x 8
    virtual methods = 1352 virtual calls per frame (paper: ~1300), and
    a monolithic annotation set of 13*8 + 8 = 112 entries (paper: >100).
    """
    methods = [f"m{j}" for j in range(methods_per_type)]
    base_methods = "\n".join(
        f"    virtual float {m}() {{ return a + {j}.0f; }}"
        for j, m in enumerate(methods)
    )
    classes = []
    for t in range(num_types):
        overrides = "\n".join(
            f"    virtual float {m}() {{ a = a + {t + 1}.0f; "
            f"return a * {j + 1}.0f; }}"
            for j, m in enumerate(methods)
        )
        classes.append(f"class Component{t} : Component {{\n{overrides}\n}};")
    pools = "\n".join(
        f"Component{t} g_pool{t}[{entities_per_type}];" for t in range(num_types)
    )
    ptr_arrays = "\n".join(
        f"Component{t}* g_ptrs{t}[{entities_per_type}];"
        for t in range(num_types)
    )
    total = num_types * entities_per_type
    setup_lines = []
    for t in range(num_types):
        setup_lines.append(
            f"    for (int i = 0; i < {entities_per_type}; i++) {{\n"
            f"        g_all[{t} * {entities_per_type} + i] = &g_pool{t}[i];\n"
            f"        g_ptrs{t}[i] = &g_pool{t}[i];\n"
            f"    }}"
        )
    setup = "\n".join(setup_lines)
    call_all = "\n".join(
        f"            total = total + (int)c->{m}();" for m in methods
    )
    cache_ann = f", cache({cache})" if cache else ""
    if not specialized:
        domain_items = ", ".join(
            f"Component{t}::{m}" for t in range(num_types) for m in methods
        )
        domain_items += ", " + ", ".join(f"Component::{m}" for m in methods)
        body = f"""
    int total = 0;
    __offload_handle_t h = __offload [domain({domain_items}){cache_ann}] {{
        Array<Component*, {total}> comps(g_all);
        for (int i = 0; i < {total}; i++) {{
            Component* c = comps[i];
{call_all}
        }}
    }};
    __offload_join(h);
    print_int(total);"""
    else:
        # One type-specialised offload per component type; all launched
        # before any join, so they spread across the accelerator cores
        # (the restructured design runs 13 independent tasks).
        launches = []
        joins = []
        for t in range(num_types):
            domain_items = ", ".join(f"Component{t}::{m}" for m in methods)
            calls = "\n".join(
                f"            t{t} = t{t} + (int)c->{m}();" for m in methods
            )
            launches.append(
                f"""
    int t{t} = 0;
    __offload_handle_t h{t} = __offload [domain({domain_items}){cache_ann}] {{
        Array<Component{t}*, {entities_per_type}> comps(g_ptrs{t});
        for (int i = 0; i < {entities_per_type}; i++) {{
            Component{t}* c = comps[i];
{calls}
        }}
    }};"""
            )
            joins.append(
                f"    __offload_join(h{t});\n    total = total + t{t};"
            )
        body = (
            "    int total = 0;"
            + "".join(launches)
            + "\n"
            + "\n".join(joins)
            + "\n    print_int(total);"
        )
    class_text = "\n".join(classes)
    return f"""
class Component {{
    int id; float a; float b;
{base_methods}
}};
{class_text}
{pools}
{ptr_arrays}
Component* g_all[{total}];

void setup() {{
{setup}
}}

void main() {{
    setup();
{body}
}}
"""


def ai_kernel_source(
    entity_count: int = 48,
    check_count: int = 4,
    offloaded: bool = True,
    cache: str | None = "direct",
) -> str:
    """The Section 4.1 AI case study: decision making over entities
    using virtual check objects ("specific checks used in decision
    making involve virtual invocations").

    The offloaded version shows the optimised structure the paper
    arrives at: entities are staged in bulk with an ``Array`` accessor
    (grouping by uniform type makes this possible), virtual checks
    receive *values* rather than pointers so one compiled duplicate per
    check suffices, and results are written back in one transfer.
    """
    checks = """
class ThreatCheck : Check {
    virtual int eval(int x, int y, int health, int threat) {
        if (threat > threshold) { return 2 + (x + y) % 3; }
        return 0;
    }
};
class HealthCheck : Check {
    virtual int eval(int x, int y, int health, int threat) {
        if (health < threshold) { return 3; }
        return health % 2;
    }
};
class RangeCheck : Check {
    virtual int eval(int x, int y, int health, int threat) {
        int d = iabs(x) + iabs(y);
        if (d < threshold) { return 1; }
        return 0;
    }
};
"""
    cache_ann = f", cache({cache})" if cache else ""
    # Slots past the four checks reuse them in turn: no null vtable slot.
    extra_slots = "".join(
        f"\n    g_checks[{c}] = &g_c{c % 4};" for c in range(4, check_count)
    )
    domain = (
        "domain(Check::eval, ThreatCheck::eval, HealthCheck::eval, "
        "RangeCheck::eval)"
    )
    kernel = f"""
        Array<Entity, {entity_count}> ents(g_entities);
        for (int i = 0; i < {entity_count}; i++) {{
            int decision = 0;
            for (int c = 0; c < {check_count}; c++) {{
                Check* chk = g_checks[c];
                decision = decision
                    + chk->eval(ents[i].x, ents[i].y,
                                ents[i].health, ents[i].threat);
            }}
            ents[i].plan = decision;
            total = total + decision;
        }}
        ents.put_back();"""
    if offloaded:
        body = f"""
    int total = 0;
    __offload_handle_t h = __offload [{domain}{cache_ann}] {{
{kernel}
    }};
    __offload_join(h);"""
    else:
        body = f"""
    int total = 0;
{kernel}"""
    return f"""
struct Entity {{
    int x; int y; int health; int threat; int plan; int pad;
}};
class Check {{
    int threshold;
    virtual int eval(int x, int y, int health, int threat) {{ return 0; }}
}};
{checks}
Entity g_entities[{entity_count}];
ThreatCheck g_c0;
HealthCheck g_c1;
RangeCheck g_c2;
Check g_c3;
Check* g_checks[{check_count}];

void setup() {{
    for (int i = 0; i < {entity_count}; i++) {{
        g_entities[i].x = i * 3 % 41 - 20;
        g_entities[i].y = i * 7 % 37 - 18;
        g_entities[i].health = 20 + i % 80;
        g_entities[i].threat = i % 10;
    }}
    g_c0.threshold = 5;
    g_c1.threshold = 30;
    g_c2.threshold = 12;
    g_c3.threshold = 0;
    g_checks[0] = &g_c0;
    g_checks[1] = &g_c1;
    g_checks[2] = &g_c2;
    g_checks[3] = &g_c3;{extra_slots}
}}

void main() {{
    setup();
{body}
    print_int(total);
    print_int(g_entities[0].plan);
}}
"""


def move_loop_source(
    object_count: int = 32,
    use_accessor: bool = False,
    cache: str | None = None,
) -> str:
    """The Section 4.2 locality loop: ``current->move()`` over a pointer
    array, with the pointer array either chased through outer memory
    (the problem) or staged by an ``Array`` accessor (the fix)."""
    half = object_count // 2
    cache_ann = f", cache({cache})" if cache else ""
    if use_accessor:
        loop = f"""
        Array<GameObject*, {object_count}> local_objects(g_objects);
        GameObject* current = local_objects[0];
        for (int i = 0; i < {object_count}; i++) {{
            current = local_objects[i];
            current->move();
        }}"""
    else:
        loop = f"""
        for (int i = 0; i < {object_count}; i++) {{
            GameObject* current = g_objects[i];
            current->move();
        }}"""
    return f"""
class GameObject {{
    int id;
    float x; float y;
    virtual void move() {{ x = x + 1.0f; y = y - 1.0f; }}
}};
class Runner : GameObject {{
    virtual void move() {{ x = x + 2.0f; }}
}};
GameObject g_pool_a[{half}];
Runner g_pool_b[{object_count - half}];
GameObject* g_objects[{object_count}];

void setup() {{
    for (int i = 0; i < {half}; i++) {{
        g_objects[i] = &g_pool_a[i];
        g_pool_a[i].id = i;
    }}
    for (int i = 0; i < {object_count - half}; i++) {{
        g_objects[{half} + i] = &g_pool_b[i];
        g_pool_b[i].id = {half} + i;
    }}
}}

void main() {{
    setup();
    __offload [domain(GameObject::move, Runner::move){cache_ann}] {{
{loop}
    }};
    print_float(g_pool_a[0].x);
    print_float(g_pool_b[0].x);
}}
"""


def word_struct_source(packet_count: int = 32) -> str:
    """The Section 5 workload: byte fields inside word-aligned structs,
    processed with constant-offset accesses (the hybrid scheme's sweet
    spot).  sizeof(Packet) is a word multiple, so the variable-index
    pointer arithmetic stays word-addressed and legal."""
    return f"""
struct Packet {{
    char a; char b; char c; char d;
    int value;
}};
Packet g_packets[{packet_count}];

void main() {{
    for (int i = 0; i < {packet_count}; i++) {{
        Packet* p = &g_packets[i];
        p->a = p->b;
        p->c = (char)(p->value + i);
        p->d = (char)(i);
        p->value = p->value + p->a + p->d;
    }}
    print_int(g_packets[1].value);
}}
"""


def word_illegal_sources() -> dict[str, str]:
    """The paper's Section 5 legality examples, keyed by expectation.

    Keys: ``legal_word_step``, ``illegal_byte_into_word``,
    ``legal_byte_qualified``, ``illegal_variable_byte_arith``.
    """
    prologue = """
struct T { char a; char b; char c; char d; };
T g_t;
"""
    return {
        "legal_word_step": prologue
        + """
void main() {
    char* p = (char*)&g_t;
    char* q = p + 4;    // legal: the word size is 4
    print_int(0);
}
""",
        "illegal_byte_into_word": prologue
        + """
void main() {
    char* p = (char*)&g_t;
    char* q = p + 1;    // illegal on a word-addressed target
}
""",
        "legal_byte_qualified": prologue
        + """
void main() {
    char* p = (char*)&g_t;
    char __byte * q = p + 1;   // legal: destination is byte-addressed
    print_int(0);
}
""",
        "illegal_variable_byte_arith": prologue
        + """
void main() {
    char buf[8];
    char* s = &buf[0];
    for (int i = 0; i < 8; i++) { *(s + i) = (char)i; }
}
""",
    }


def game_demo_source(
    entity_count: int = 32,
    pair_count: int = 24,
    particles: int = 16,
    frames: int = 2,
    offloaded: bool = True,
) -> str:
    """A whole-frame pipeline combining the paper's techniques.

    Each frame launches three heterogeneous offloads in parallel with
    host-side collision detection:

    * an AI pass (accessor-staged entities, set-associative cache,
      writing a separate score/plan array so host work stays disjoint),
    * two type-specialised component passes (animation and particle
      emitters) with domain-dispatched virtual updates,

    then joins all three, integrates positions on the host and
    "renders".  ``offloaded=False`` runs everything sequentially on the
    host — the baseline.
    """
    if offloaded:
        do_frame = """
    void doFrame() {
        __offload_handle_t ai = __offload [cache(setassoc)] {
            this->aiPass();
        };
        __offload_handle_t anim = __offload
                [domain(AnimComponent::update), cache(direct)] {
            this->animPass();
        };
        __offload_handle_t emit = __offload
                [domain(EmitterComponent::update), cache(direct)] {
            this->emitterPass();
        };
        this->detectCollisions();   // host, in parallel with all three
        __offload_join(ai);
        __offload_join(anim);
        __offload_join(emit);
        this->integrate();
        this->render();
    }"""
    else:
        do_frame = """
    void doFrame() {
        this->aiPass();
        this->animPass();
        this->emitterPass();
        this->detectCollisions();
        this->integrate();
        this->render();
    }"""
    return f"""
struct Entity {{
    float x; float y; float vx; float vy;
    int hits; int pad;
}};
Entity g_entities[{entity_count}];
float g_scores[{entity_count}];
int g_plans[{entity_count}];
int g_first[{pair_count}];
int g_second[{pair_count}];
float g_rendered = 0.0f;

class Component {{
    int id; float phase;
    virtual void update() {{ phase = phase + 0.1f; }}
}};
class AnimComponent : Component {{
    float weight;
    virtual void update() {{
        phase = phase + 0.25f;
        weight = weight * 0.5f + phase;
    }}
}};
class EmitterComponent : Component {{
    int emitted;
    virtual void update() {{
        phase = phase + 1.0f;
        if (phase > 4.0f) {{ phase = 0.0f; emitted = emitted + 1; }}
    }}
}};
AnimComponent g_anims[{particles}];
EmitterComponent g_emitters[{particles}];
AnimComponent* g_anim_ptrs[{particles}];
EmitterComponent* g_emit_ptrs[{particles}];

class GameWorld {{
    int frame;

    void aiPass() {{
        // Threat scoring over staged entities; results go to separate
        // arrays so host-side collision work touches disjoint data.
        Array<Entity, {entity_count}> ents(g_entities);
        for (int i = 0; i < {entity_count}; i++) {{
            float best = 1.0e9f;
            int plan = 0;
            for (int j = 0; j < {entity_count}; j++) {{
                if (i != j) {{
                    float dx = ents[i].x - ents[j].x;
                    float dy = ents[i].y - ents[j].y;
                    float d = dx * dx + dy * dy;
                    if (d < best) {{ best = d; plan = j; }}
                }}
            }}
            g_scores[i] = best;
            g_plans[i] = plan;
        }}
    }}

    void animPass() {{
        Array<AnimComponent*, {particles}> comps(g_anim_ptrs);
        for (int i = 0; i < {particles}; i++) {{
            AnimComponent* c = comps[i];
            c->update();
        }}
    }}

    void emitterPass() {{
        Array<EmitterComponent*, {particles}> comps(g_emit_ptrs);
        for (int i = 0; i < {particles}; i++) {{
            EmitterComponent* c = comps[i];
            c->update();
        }}
    }}

    void detectCollisions() {{
        for (int k = 0; k < {pair_count}; k++) {{
            Entity* a = &g_entities[g_first[k]];
            Entity* b = &g_entities[g_second[k]];
            float dx = a->x - b->x;
            float dy = a->y - b->y;
            if (dx * dx + dy * dy < 9.0f) {{
                a->hits = a->hits + 1;
                b->hits = b->hits + 1;
            }}
        }}
    }}

    void integrate() {{
        for (int i = 0; i < {entity_count}; i++) {{
            g_entities[i].x = g_entities[i].x + g_entities[i].vx;
            g_entities[i].y = g_entities[i].y + g_entities[i].vy;
        }}
    }}

    void render() {{
        float acc = 0.0f;
        for (int i = 0; i < {entity_count}; i++) {{
            acc = acc + g_scores[i];
        }}
        for (int i = 0; i < {particles}; i++) {{
            acc = acc + g_anims[i].weight;
        }}
        g_rendered = acc;
        frame = frame + 1;
    }}
{do_frame}
}};

GameWorld g_world;

void seed() {{
    for (int i = 0; i < {entity_count}; i++) {{
        g_entities[i].x = (float)(i * 17 % 101) - 50.0f;
        g_entities[i].y = (float)(i * 29 % 97) - 48.0f;
        g_entities[i].vx = (float)(i % 7) - 3.0f;
        g_entities[i].vy = (float)(i % 5) - 2.0f;
    }}
    for (int k = 0; k < {pair_count}; k++) {{
        g_first[k] = k % {entity_count};
        g_second[k] = (k * 13 + 1) % {entity_count};
    }}
    for (int i = 0; i < {particles}; i++) {{
        g_anim_ptrs[i] = &g_anims[i];
        g_emit_ptrs[i] = &g_emitters[i];
        g_anims[i].id = i;
        g_emitters[i].id = i;
        g_emitters[i].phase = (float)(i % 5);
    }}
}}

void main() {{
    seed();
    for (int f = 0; f < {frames}; f++) {{
        g_world.doFrame();
    }}
    print_float(g_rendered);
    print_int(g_plans[0]);
    print_int(g_entities[0].hits);
    print_int(g_emitters[0].emitted);
    print_float(g_anims[{particles} - 1].phase);
}}
"""
