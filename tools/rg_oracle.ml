(* Reference risk groups for differential checks: builds a deployment's
   fault graph and prints its minimal RGs as computed by the paper's
   §4.1.2 enumeration algorithm (Cutset.minimal_risk_groups), one
   "{a, b}" per line in canonical family order. The cram suite compares
   this with the RG column of `indaas sia`, which runs the BDD engine.

   Usage: rg_oracle DB S1,S2,... *)

module Cutset = Indaas_faultgraph.Cutset
module Builder = Indaas_sia.Builder

let () =
  match Sys.argv with
  | [| _; path; servers |] ->
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let db = Indaas_depdata.Depdb.of_string text in
      let graph =
        Builder.build db (Builder.spec (String.split_on_char ',' servers))
      in
      List.iter
        (fun rg -> print_endline ("{" ^ String.concat ", " (Cutset.names graph rg) ^ "}"))
        (Cutset.minimal_risk_groups graph)
  | _ ->
      prerr_endline "usage: rg_oracle DB S1,S2,...";
      exit 124
