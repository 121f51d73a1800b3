(** Replay divergence sentinel.

    Replays a pinball and reports the program counter and instruction
    count of the first divergence from the recording as a
    {!Elfie_util.Diag.t} ([Divergence] code, artifact
    ["replay:<pinball-name>"]). An empty list means the replay was
    faithful.

    Two passes, the second only if the first is clean:
    - constrained: schedule-enforced, syscall-injected replay — any
      divergence means the pinball's logs are internally inconsistent;
    - injection-less: the paper's [-replay:injection 0] cross-check —
      free scheduling (seed 7) with native syscalls on an empty file
      system, mimicking ELFie execution; only the per-thread
      retired-instruction contract is checked. *)

val cross_check : Elfie_pinball.Pinball.t -> Elfie_util.Diag.t list
