open Elfie_isa

(* Gainestown-flavoured parameters (the paper's native testbed
   stand-in). *)
let l1_config = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64
let l2_config = Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64
let llc_config = Cache.config ~size_bytes:8_388_608 ~ways:16 ~line_bytes:64
let l1_miss_cycles = 10
let l2_miss_cycles = 25
let llc_miss_cycles = 150
let mispredict_cycles = 15

module Predictor = struct
  type t = Bytes.t

  let entries = 4096
  let create () = Bytes.make entries '\002'
  let copy = Bytes.copy

  (* Counter transition table, indexed by [counter * 2 + taken]: the
     saturating min/max update as a lookup, so the host CPU does not
     have to branch on the (data-dependent, often unpredictable) guest
     branch direction. *)
  let next = "\000\001\000\002\001\003\002\003"

  let[@inline] mispredicted t ~pc ~taken =
    (* Bits 1..12 of the pc; [Int64.to_int] keeps bits 0..62 and the
       mask only looks at the low ones, so this equals shifting the
       int64 — without materialising a boxed intermediate. *)
    let ti = Bool.to_int taken in
    let idx = Int64.to_int pc lsr 1 land (entries - 1) in
    let counter = Char.code (Bytes.unsafe_get t idx) in
    Bytes.unsafe_set t idx (String.unsafe_get next ((counter lsl 1) lor ti));
    (* Prediction is the counter's high bit. *)
    (counter lsr 1) lxor ti = 1
end

type t = { l1 : Cache.t; l2 : Cache.t; llc : Cache.t; predictor : Predictor.t }

let create () =
  {
    l1 = Cache.create l1_config;
    l2 = Cache.create l2_config;
    llc = Cache.create llc_config;
    predictor = Predictor.create ();
  }

(* Independent clone: forked machines must charge the same penalties
   the parent would have, without aliasing predictor or tag state. *)
let copy t =
  {
    l1 = Cache.copy t.l1;
    l2 = Cache.copy t.l2;
    llc = Cache.copy t.llc;
    predictor = Predictor.copy t.predictor;
  }

let ins_cost (_ : t) = function
  | Insn.K_alu -> 1
  | K_load -> 2
  | K_store -> 1
  | K_branch -> 1
  | K_call -> 2
  | K_syscall -> 50
  | K_vector -> 3
  | K_other -> 1

let mem_cost t key =
  if Cache.access t.l1 key then 0
  else if Cache.access t.l2 key then l1_miss_cycles
  else if Cache.access t.llc key then l2_miss_cycles
  else llc_miss_cycles

let branch_cost t ~pc ~taken =
  Bool.to_int (Predictor.mispredicted t.predictor ~pc ~taken)
  * mispredict_cycles
