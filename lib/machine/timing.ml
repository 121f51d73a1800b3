open Elfie_isa

type config = {
  l1 : Cache.config;
  l2 : Cache.config;
  llc : Cache.config;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  llc_miss_cycles : int;
  mispredict_cycles : int;
  base_cycles : Insn.klass -> int;
}

let default_base = function
  | Insn.K_alu -> 1
  | K_load -> 2
  | K_store -> 1
  | K_branch -> 1
  | K_call -> 2
  | K_syscall -> 50
  | K_vector -> 3
  | K_other -> 1

let default =
  {
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64;
    llc = Cache.config ~size_bytes:8_388_608 ~ways:16 ~line_bytes:64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 25;
    llc_miss_cycles = 150;
    mispredict_cycles = 15;
    base_cycles = default_base;
  }

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

type t = {
  cfg : config;
  l1 : Cache.t;
  l2 : Cache.t;
  llc : Cache.t;
  predictor : Predictor.t;
}

let create cfg =
  {
    cfg;
    l1 = Cache.create cfg.l1;
    l2 = Cache.create cfg.l2;
    llc = Cache.create cfg.llc;
    predictor = Predictor.create ();
  }

(* Independent clone: forked machines must charge the same penalties
   the parent would have, without aliasing predictor or tag state. *)
let copy t =
  {
    cfg = t.cfg;
    l1 = Cache.copy t.l1;
    l2 = Cache.copy t.l2;
    llc = Cache.copy t.llc;
    predictor = Predictor.copy t.predictor;
  }

let ins_cost t k = t.cfg.base_cycles k

let mem_cost t key =
  if Cache.access t.l1 key then 0
  else if Cache.access t.l2 key then t.cfg.l1_miss_cycles
  else if Cache.access t.llc key then t.cfg.l2_miss_cycles
  else t.cfg.llc_miss_cycles

let branch_cost t ~pc ~taken =
  Bool.to_int (Predictor.mispredicted t.predictor ~pc ~taken)
  * t.cfg.mispredict_cycles
