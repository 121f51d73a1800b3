(* Seeded program generator: the only source of the benchmark's inputs.

   The library never sees the seed, only the [Programs.spec] values made
   here. The design is fixed and the seed fills it in, so a workload's
   load stays the same from seed to seed while its programs differ:

   - every working set gets three programs that between them run each
     of the eight kernels once (phase counts 3, 3 and 2); the seed
     decides which kernels share a program and in which order they run;
   - Chase and Gather both make the program build a pointer ring over
     its whole working set first (two million instructions at 2 MiB),
     so they never share a program: every working set pays for the ring
     exactly twice;
   - file input, gettimeofday calls and heap growth are each switched on
     in half of the programs, which half drawn by the seed;
   - program count, thread counts and instructions per phase are set
     per workload.

   Strictly random draws would move a pass's wall time by tens of
   percent from seed to seed (a 2 MiB Chase program costs several times
   a 16 KiB Alu one), far more than the regressions the benchmark has to
   catch. *)

module Kernels = Elfie_workloads.Kernels
module Programs = Elfie_workloads.Programs
module Rng = Elfie_util.Rng

(* Per-thread working sets, largest first (the pool starts the heaviest
   programs first). Against CoreSim's modelled caches (L1 32 KiB, L2
   1 MiB, LLC 11 MiB) they spill L2, fit L2, fit L2 and fit L1. *)
let all_working_sets = [ 2_097_152; 262_144; 65_536; 16_384 ]

(* One group is enough for the smoke size, which checks determinism only. *)
let smoke_working_sets = [ 65_536 ]

type shape = {
  prefix : string;  (** program names are [prefix-NN] *)
  working_sets : int list;  (** three programs each, largest first *)
  threads : int -> int;  (** thread count of the program at position [i] *)
  ins_per_phase : int;  (** per thread, per outer iteration *)
  outer_reps : int;
}

(* [n] booleans, half of them true, in seeded order. *)
let half rng n =
  let a = Array.init n (fun i -> i mod 2 = 0) in
  Rng.shuffle rng a;
  a

(* The eight kernels in seeded order, split 3 + 3 + 2, with Chase and
   Gather moved apart when the shuffle put them in one program. *)
let split_kernels rng =
  let a = Array.of_list Kernels.all in
  Rng.shuffle rng a;
  let group i = if i < 3 then 0 else if i < 6 then 1 else 2 in
  let index k =
    let rec go i = if a.(i) = k then i else go (i + 1) in
    go 0
  in
  let c = index Kernels.Chase and g = index Kernels.Gather in
  if group c = group g then begin
    let other = [| 3; 6; 0 |].(group g) in
    a.(g) <- a.(other);
    a.(other) <- Kernels.Gather
  end;
  [ Array.sub a 0 3; Array.sub a 3 3; Array.sub a 6 2 ] |> List.map Array.to_list

let specs ~seed shape =
  let rng = Rng.create (Int64.of_int seed) in
  let groups =
    List.concat_map
      (fun ws -> List.map (fun ks -> (ws, ks)) (split_kernels rng))
      shape.working_sets
  in
  let n = List.length groups in
  let file_io = half rng n and time_calls = half rng n and heap_churn = half rng n in
  List.mapi
    (fun i (ws, kernels) ->
      let phases =
        List.map
          (fun k ->
            { Programs.kernel = k; reps = shape.ins_per_phase / Kernels.ins_per_iter k })
          kernels
      in
      Programs.spec ~phases ~outer_reps:shape.outer_reps ~threads:(shape.threads i)
        ~ws_bytes:ws ~file_io:file_io.(i) ~time_calls:time_calls.(i)
        ~heap_churn:heap_churn.(i)
        (Printf.sprintf "%s-%02d" shape.prefix i))
    groups

(* Canonical one-line rendering of a spec, for the output digest and for
   listing what a seed generated. *)
let describe (s : Programs.spec) =
  Printf.sprintf "%s t=%d ws=%d outer=%d io=%b time=%b brk=%b [%s]"
    s.Programs.name s.threads s.ws_bytes s.outer_reps s.file_io s.time_calls
    s.heap_churn
    (String.concat ","
       (List.map
          (fun (p : Programs.phase) ->
            Printf.sprintf "%s*%d" (Kernels.name p.kernel) p.reps)
          s.phases))
