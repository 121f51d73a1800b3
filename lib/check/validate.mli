(** Consistency validation for pinballs and ELFies.

    The readers ([Pinball.of_files_result], [Image.read]) reject structurally
    malformed artifacts; these validators go further and check that a
    well-formed artifact is {e internally consistent} — the conditions a
    trustworthy ELFie conversion depends on. Each check failure is one
    [Diag.t]; an empty list means the artifact passed.

    Checks performed on a pinball:
    - thread count agrees across register contexts, icounts and the
      per-thread syscall logs ([Thread_mismatch]);
    - region icounts are non-negative ([Count_out_of_range]);
    - the recorded schedule only references recorded threads, and its
      per-thread slice totals equal the recorded region icounts
      ([Icount_mismatch]);
    - the memory image is sorted and non-overlapping
      ([Segment_overlap]);
    - for fat pinballs: every thread's start PC and every carried
      symbol lands inside the image ([Entry_out_of_bounds],
      [Symbol_out_of_bounds]).

    Checks performed on an ELF image: distinct section names,
    power-of-two alignments, disjoint loadable segments, entry point in
    executable memory, function symbols inside loaded memory. *)

val pinball : Elfie_pinball.Pinball.t -> Elfie_util.Diag.t list

val elf : ?artifact:string -> Elfie_elf.Image.t -> Elfie_util.Diag.t list
