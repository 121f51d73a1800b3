(** Basic-block-vector profiling (the SimPoint front-end).

    Runs a program and emits one sparse basic-block vector per fixed-size
    instruction slice: for each slice, how many instructions retired
    inside each basic block (identified by its start address). These
    vectors are the input to the k-means phase clustering in
    {!Elfie_simpoint}.

    Collection is {e block-driven}: {!profile} counts whole
    translated-block runs through [Machine.set_block_observer] — no
    per-instruction hook, so the run stays on the machine's hook-free
    chained fast path. Slice boundaries are reconstructed exactly by
    splitting a run's charge where the boundary falls inside it, and
    per-thread block attribution is preserved, so the output is
    bit-identical to counting one instruction at a time. *)

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
    observer slot, so [--profile] still sees the run. Raises
    [Invalid_argument] if [slice_size <= 0]. *)
val profile : ?max_ins:int64 -> Run.spec -> slice_size:int64 -> profile

(** The block-driven collector itself, for wiring to
    [Machine.set_block_observer] directly (or chaining with other
    observers): returns the observer function and a function extracting
    the finished profile. Raises [Invalid_argument] if
    [slice_size <= 0]. *)
val collector :
  slice_size:int64 ->
  (tid:int -> pcs:int64 array -> n:int -> ends_block:bool -> unit)
  * (unit -> profile)
