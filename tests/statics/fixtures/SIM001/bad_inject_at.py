# statics-fixture-scope: sim
def deliver(sim: object, fn: object) -> None:
    sim.inject_at(1.5, fn)
