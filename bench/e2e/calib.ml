(* Host-speed reference.

   The shared two-core host this benchmark was written on changes speed
   by up to +-20% over minutes, and not the same way for every kind of
   work, nor for one core busy as for two. A run times five fixed jobs
   before the set-up, before every pass and after the last, and scales
   its timings by the median of their combined slowdown, so they read as
   seconds on a host running at the reference speed and a slow minute
   does not pass for a regression. The jobs depend on nothing in lib/,
   so no library change moves them. They stand for the kinds of work the
   pipeline does: closure dispatch over a small memory (the
   interpreters) and random reads over 8 MiB (large working sets,
   pinball and ELF bytes), each on one core and on both at once, and
   allocation on both cores (the pool's workers and their GC). In runs
   of 22 to 48 passes of each workload (150 s each, one seed), dividing
   each pass's time by the index around it narrowed the spread of pass
   times (interquartile range over median) from 13-15% to 6-9% on three
   workloads and left pinpoints-native's at 12-13% (measured with an
   earlier variant of the jobs); the dispatch job alone made it wider on
   three workloads of four. *)

type st = { mutable a : int; mutable b : int; mem : Bytes.t }

let mask = (1 lsl 18) - 8

let ops =
  [| (fun s -> s.a <- (s.a + s.b) land 0x3fffffff);
     (fun s -> s.b <- s.b lxor (s.a lsl 3));
     (fun s -> s.b <- s.b + Int64.to_int (Bytes.get_int64_le s.mem (s.a land mask)));
     (fun s -> Bytes.set_int64_le s.mem (s.b land mask) (Int64.of_int s.a));
     (fun s -> s.a <- ((s.a * 0x5bd1e995) + 1) land 0x3fffffff);
     (fun s -> if s.a land 1 = 0 then s.b <- s.b + 1 else s.b <- s.b - 3);
     (fun s -> s.b <- s.b + !(Sys.opaque_identity (ref s.a)));
     (fun s -> s.a <- ((s.a lsr 1) + (s.b land 0xffff)) land 0x3fffffff) |]

let dispatch () =
  let s = { a = 1; b = 2; mem = Bytes.make (mask + 8) '\001' } in
  for i = 1 to 24_000_000 do
    ops.((s.a lxor i) land 7) s
  done;
  ignore (Sys.opaque_identity s)

(* The buffer is dropped after each sample; run.ml collects it before it
   resets the peak-RSS mark. *)
let random_reads () =
  let size = 1 lsl 23 in
  let m = Bytes.make size '\001' in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 10_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + Char.code (Bytes.unsafe_get m (!x land (size - 1)))
  done;
  ignore (Sys.opaque_identity !acc)

let allocation () =
  let keep = ref [] in
  for i = 1 to 3_000_000 do
    keep := (i, float_of_int i, [ i ]) :: (if i land 1023 = 0 then [] else !keep)
  done;
  ignore (Sys.opaque_identity !keep)

(* The job on this domain and a second one at once, as the pool's two
   workers run. *)
let on_both f () =
  let d = Domain.spawn f in
  f ();
  Domain.join d

(* Each job with its median time on the two-core x86-64 container the
   benchmark's baseline was measured on. *)
let jobs =
  [ (dispatch, 0.052); (on_both dispatch, 0.060); (random_reads, 0.044);
    (on_both random_reads, 0.054); (on_both allocation, 0.040) ]

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* The host's slowdown against the reference: the geometric mean of the
   jobs' times over their reference times (1.0 at the reference speed). *)
let sample () =
  exp
    (List.fold_left (fun acc (f, ref_s) -> acc +. log (time f /. ref_s)) 0.0 jobs
    /. float_of_int (List.length jobs))
