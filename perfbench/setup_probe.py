"""Child of run.py's set-up measurement: one timed ``import symm_ent.cli``.

Host speed is sampled during the import as in ``hostspeed.SpeedProbe``, but
with a kernel that does what an import does (unmarshal and execute a module
body; NumPy is not loaded yet) on a shorter timer, because the import takes
only a few hundred milliseconds. Prints, on one
line: the monotonic clock when the import has finished (the same clock the
parent read before starting this interpreter), the seconds the probe itself
took, and the factor that scales the import time to the reference speed.
"""

import marshal
import signal
import time

INTERVAL_S = 0.02
# about kernel()'s time on an unloaded 2-vCPU x86_64 host; it only fixes
# the unit of the normalized set-up time
REFERENCE_KERNEL_S = 0.9e-3
samples = []
_MODULE = marshal.dumps(compile("\n".join(
    f"class C{i}:\n    x = {i}\n    def f(self, a, b=2):\n        return a + b + self.x\n"
    for i in range(6)
), "<probe>", "exec"))


def kernel() -> None:
    """Unmarshal and run a small module body, as an import does, a fixed number of times."""
    for _ in range(12):
        exec(marshal.loads(_MODULE), {})


def tick(signum, frame) -> None:
    t0 = time.perf_counter()
    kernel()
    samples.append(time.perf_counter() - t0)


signal.signal(signal.SIGALRM, tick)
signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
import symm_ent.cli  # noqa: E402,F401  (the import being timed)

signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
end = time.monotonic_ns()
during = sum(samples)
if not samples:
    tick(None, None)
print(end, during, REFERENCE_KERNEL_S * len(samples) / sum(samples))
