(** Basic-block-vector profiling (the SimPoint front-end).

    Runs a program and emits one sparse basic-block vector per fixed-size
    instruction slice: for each slice, how many instructions retired
    inside each basic block (identified by its start address). These
    vectors are the input to the k-means phase clustering in
    {!Elfie_simpoint}.

    Collection is {e block-driven}: the default {!profile} counts whole
    translated-block runs through [Machine.set_block_observer] — no
    per-instruction hook, so the run stays on the machine's hook-free
    chained fast path. Slice boundaries are reconstructed exactly by
    splitting a run's charge where the boundary falls inside it, and
    per-thread block attribution is preserved, so the output is
    bit-identical to the retained per-instruction reference tool
    ({!tool} / {!profile_per_ins}). *)

type slice = {
  index : int;
  vector : (int64 * int) array;  (** (block start, instructions), sorted *)
  instructions : int64;  (** normally [slice_size]; last slice may be short *)
}

type profile = {
  slices : slice list;
  slice_size : int64;
  total_instructions : int64;
}

(** Profile a full program run, hook-free (block-observer driven). When a
    global {!Elfie_obs.Profile} is active it is chained on the same
    observer slot, so [--profile] still sees the run. *)
val profile : ?max_ins:int64 -> Run.spec -> slice_size:int64 -> profile

(** Profile a full program run with the per-instruction reference tool —
    the oracle the block-driven collector is validated against (and the
    pre-block-observer measurement baseline). *)
val profile_per_ins : ?max_ins:int64 -> Run.spec -> slice_size:int64 -> profile

(** The block-driven collector itself, for wiring to
    [Machine.set_block_observer] directly (or chaining with other
    observers): returns the observer function and a function extracting
    the finished profile. *)
val collector :
  slice_size:int64 ->
  (tid:int -> pcs:int64 array -> n:int -> ends_block:bool -> unit)
  * (unit -> profile)

(** The per-instruction profiling tool, for composing with other tools:
    returns the tool and a function extracting the finished profile. *)
val tool : slice_size:int64 -> Pintool.t * (unit -> profile)
