(* The compiled dataplane's programs: every plan is translated once, at
   deployment time, into preresolved runtime programs — merge specs in
   arrays indexed by merge id, NF and merger targets resolved to direct
   server slots, static cycle costs folded into one constant (only the
   per-byte full-copy term stays dynamic), and emissions as arrays
   walked by a cursor instead of per-packet closure lists. *)

open Nfp_packet
open Nfp_core

type ccopy = { c_src : int; c_dst : int; c_full : bool }

type csend =
  | S_nf of int
  | S_merge of { merge : cmerge; branch : int; nil : bool }
  | S_deliver of int

and cprog = {
  p_copies : ccopy array;
  p_sends : csend array;
  p_static : int;
  p_full_srcs : int array;
}

and cmerge = {
  m_mid : int;
  m_id : int;
  m_spec : Tables.merge_spec;
  m_expected : int;
  m_versions : int array;
  m_result_version : int;
  m_ops : Merge_op.t array;
  m_drop_any : bool;
  m_winner : int;
  mutable m_next : cprog;
  mutable m_nil_sends : csend array;
  mutable m_completion_static : int;
}

type cdelivery = { d_ctx : Context.t; d_merge : cmerge; d_branch : int; d_nil : bool }

let packet_bytes ctx version =
  let p = Context.slot ctx version in
  if p == Packet.absent then 1500 else Packet.wire_length p

(* First branch of [spec] the deliverer satisfies, mirroring the
   interpretive reference's [branch_of] — resolved once at compile time. *)
let branch_index (spec : Tables.merge_spec) (deliverer : Tables.deliverer) =
  let rec go i = function
    | [] -> -1
    | (e : Tables.expect) :: rest ->
        if
          e.deliverer = deliverer
          || match deliverer with Tables.D_nf n -> List.mem n e.members | _ -> false
        then i
        else go (i + 1) rest
  in
  go 0 spec.expected

let empty_prog = { p_copies = [||]; p_sends = [||]; p_static = 0; p_full_srcs = [||] }

let compile ~(cost : Nfp_sim.Cost.t) (plans : Tables.plan array) nf_impls =
  (* NF slots: dense indices in nf_impls order. *)
  let slot_of : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun i (mid, (e : Tables.nf_entry), _) -> Hashtbl.replace slot_of (mid, e.nf) i)
    nf_impls;
  (* Merge specs per plan, in arrays indexed by merge id. *)
  let cmerge_table =
    Array.mapi
      (fun i (plan : Tables.plan) ->
        let mid = i + 1 in
        let max_id =
          List.fold_left (fun a (m : Tables.merge_spec) -> max a m.id) (-1) plan.merges
        in
        let arr = Array.make (max_id + 1) None in
        List.iter
          (fun (spec : Tables.merge_spec) ->
            let drop_any, winner =
              match spec.drop_policy with
              | `Any -> (true, -1)
              | `Priority_to w ->
                  let b = branch_index spec w in
                  (b < 0, b)
            in
            arr.(spec.id) <-
              Some
                {
                  m_mid = mid;
                  m_id = spec.id;
                  m_spec = spec;
                  m_expected = List.length spec.expected;
                  m_versions =
                    Array.of_list
                      (List.map (fun (e : Tables.expect) -> e.version) spec.expected);
                  m_result_version = spec.result_version;
                  m_ops = Array.of_list spec.ops;
                  m_drop_any = drop_any;
                  m_winner = winner;
                  m_next = empty_prog;
                  m_nil_sends = [||];
                  m_completion_static = 0;
                })
          plan.merges;
        arr)
      plans
  in
  let lookup_merge mid id =
    let arr = cmerge_table.(mid - 1) in
    if id < 0 || id >= Array.length arr then
      invalid_arg "System: delivery references unknown merge point"
    else
      match arr.(id) with
      | Some m -> m
      | None -> invalid_arg "System: delivery references unknown merge point"
  in
  let compile_actions ~mid ~(self : Tables.deliverer) actions =
    let copies = ref [] and sends = ref [] in
    let static = ref 0 and full_srcs = ref [] in
    List.iter
      (function
        | Tables.Copy { src_version; dst_version; full } ->
            copies := { c_src = src_version; c_dst = dst_version; c_full = full } :: !copies;
            if full then begin
              static := !static + cost.copy_base;
              full_srcs := src_version :: !full_srcs
            end
            else static := !static + cost.header_copy
        | Tables.Distribute { version; targets } ->
            static := !static + (cost.ring_enqueue * List.length targets);
            List.iter
              (fun target ->
                let s =
                  match target with
                  | Tables.To_nf n -> (
                      match Hashtbl.find_opt slot_of (mid, n) with
                      | Some i -> S_nf i
                      | None ->
                          invalid_arg
                            (Printf.sprintf "System: FT references unknown NF %S" n))
                  | Tables.To_merger id ->
                      let m = lookup_merge mid id in
                      S_merge
                        { merge = m; branch = branch_index m.m_spec self; nil = false }
                  | Tables.Deliver -> S_deliver version
                in
                sends := s :: !sends)
              targets)
      actions;
    {
      p_copies = Array.of_list (List.rev !copies);
      p_sends = Array.of_list (List.rev !sends);
      p_static = !static;
      p_full_srcs = Array.of_list (List.rev !full_srcs);
    }
  in
  (* Second pass: merge continuations (may reference sibling or
     enclosing merges, which all exist now). *)
  Array.iteri
    (fun i arr ->
      let mid = i + 1 in
      Array.iter
        (function
          | None -> ()
          | Some m ->
              let spec = m.m_spec in
              m.m_next <- compile_actions ~mid ~self:(Tables.D_merger m.m_id) spec.next;
              m.m_completion_static <-
                (Array.length m.m_ops * cost.merge_op) + m.m_next.p_static;
              m.m_nil_sends <-
                Array.of_list
                  (List.concat_map
                     (function
                       | Tables.Distribute { version = _; targets } ->
                           List.filter_map
                             (function
                               | Tables.To_merger outer ->
                                   let om = lookup_merge mid outer in
                                   Some
                                     (S_merge
                                        {
                                          merge = om;
                                          branch =
                                            branch_index om.m_spec
                                              (Tables.D_merger m.m_id);
                                          nil = true;
                                        })
                               | Tables.To_nf _ | Tables.Deliver -> None)
                             targets
                       | Tables.Copy _ -> [])
                     spec.next))
        arr)
    cmerge_table;
  let nf_progs =
    Array.of_list
      (List.map
         (fun (mid, (entry : Tables.nf_entry), _) ->
           let nil_sends =
             match entry.nil_target with
             | None -> [||]
             | Some id ->
                 let m = lookup_merge mid id in
                 let branch = branch_index m.m_spec (Tables.D_nf entry.nf) in
                 [| S_merge { merge = m; branch; nil = true } |]
           in
           (compile_actions ~mid ~self:(Tables.D_nf entry.nf) entry.actions, nil_sends))
         nf_impls)
  in
  let classifier_progs =
    Array.mapi
      (fun i (plan : Tables.plan) ->
        compile_actions ~mid:(i + 1) ~self:(Tables.D_nf "classifier") plan.classifier_actions)
      plans
  in
  (nf_progs, classifier_progs)

let exec_prog prog ctx =
  let copies = prog.p_copies in
  for i = 0 to Array.length copies - 1 do
    let c = copies.(i) in
    ignore (Context.copy ctx ~src:c.c_src ~dst:c.c_dst ~full:c.c_full)
  done;
  prog.p_sends

let dyn_cycles ~(cost : Nfp_sim.Cost.t) prog ctx =
  let srcs = prog.p_full_srcs in
  let n = Array.length srcs in
  if n = 0 then 0
  else begin
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc :=
        !acc + int_of_float (cost.copy_per_byte *. float_of_int (packet_bytes ctx srcs.(i)))
    done;
    !acc
  end
